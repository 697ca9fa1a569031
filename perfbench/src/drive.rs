//! The client: one thread that sends a workload's requests, closed loop or
//! open loop, and checks every verdict it gets back.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use mlr_core::{BatchTicket, Rejected, Ticket, TicketFailed};
use mlr_num::Complex;

use crate::host::KeepAwake;
use crate::trace::{ShotKey, Tracer};
use crate::workload::{Served, Workload, LANE_SHARES};

/// SplitMix64: the traffic generator's random stream, a pure function of
/// the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_7EAF_F1C0_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An index drawn with probability proportional to `weights`.
    fn pick(&mut self, weights: impl IntoIterator<Item = f64>) -> usize {
        let weights: Vec<f64> = weights.into_iter().collect();
        let mut u = self.unit() * weights.iter().sum::<f64>();
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }
}

/// One request: `len` consecutive pool shots of one tenant, on one lane.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub tenant: usize,
    pub lane: usize,
    pub first: usize,
    pub len: usize,
}

enum Pending {
    Window(BatchTicket),
    Shot(Ticket),
}

enum Verdicts {
    Window(Vec<Vec<usize>>),
    Shot(Vec<usize>),
}

impl Verdicts {
    fn rows(&self) -> &[Vec<usize>] {
        match self {
            Verdicts::Window(rows) => rows,
            Verdicts::Shot(row) => std::slice::from_ref(row),
        }
    }
}

/// Wakes the parked client thread when a ticket resolves.
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

impl Pending {
    /// The verdicts if they have arrived; otherwise `waker` is woken when
    /// they do.
    fn poll(&mut self, waker: &Waker) -> Option<Result<Verdicts, TicketFailed>> {
        let mut cx = Context::from_waker(waker);
        match self {
            Pending::Window(t) => match Pin::new(t).poll(&mut cx) {
                Poll::Ready(r) => Some(r.map(Verdicts::Window)),
                Poll::Pending => None,
            },
            Pending::Shot(t) => match Pin::new(t).poll(&mut cx) {
                Poll::Ready(r) => Some(r.map(Verdicts::Shot)),
                Poll::Pending => None,
            },
        }
    }

    fn wait(self) -> Result<Verdicts, TicketFailed> {
        match self {
            Pending::Window(t) => t.outcome().map(Verdicts::Window),
            Pending::Shot(t) => t.outcome().map(Verdicts::Shot),
        }
    }
}

/// Timestamps of one traced request, nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub id: u64,
    pub tenant: usize,
    /// When it was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    pub seen_ns: u64,
    /// Shot keys of the request's first and last shot.
    pub first_key: u64,
    pub last_key: u64,
}

/// What one phase sent and got back.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub shed: u64,
    /// Requests whose ticket failed or whose verdicts differ from the
    /// tenant's direct `predict_batch`.
    pub failed: u64,
    pub elapsed_s: f64,
    /// Closed loop: when the phase started and, for every request answered
    /// while it was timed, when its verdicts arrived (ns since the run's
    /// epoch) and how many shots they cover.
    pub start_ns: u64,
    pub arrivals: Vec<(u64, u64)>,
    /// Served (shot, qubit) verdicts, and those that differ from the
    /// simulator's ground truth.
    pub levels: u64,
    pub wrong_levels: u64,
    /// Open loop: each succeeded request's due time (ns since the run's
    /// epoch) and due-to-seen latency (µs).
    pub latency: Vec<(u64, f64)>,
    /// Open loop: requests that got their verdicts within the limit.
    pub within_limit: u64,
    /// Open loop: how late each submission started, µs.
    pub late_us: Vec<f64>,
    /// Traced phases only.
    pub records: Vec<Record>,
}

impl Phase {
    fn print(&self) {
        println!(
            "phase {}: sent {} succeeded {} shed {} failed {} ({:.3} s)",
            self.name, self.sent, self.succeeded, self.shed, self.failed, self.elapsed_s
        );
    }
}

/// How a phase is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    On,
}

/// The single client thread of a workload.
pub struct Client<'a> {
    workload: Workload,
    served: &'a Served,
    key: ShotKey,
    rng: Rng,
    cursors: Vec<usize>,
    next_window: usize,
    next_id: u64,
}

impl<'a> Client<'a> {
    pub fn new(workload: Workload, served: &'a Served, seed: u64) -> Self {
        Self {
            workload,
            served,
            key: served.log.key(),
            rng: Rng::new(seed),
            cursors: vec![0; served.tenants.len()],
            next_window: 0,
            next_id: 0,
        }
    }

    /// The next request of the workload's traffic: the tenant's windows in
    /// turn, or scalar shots spread over tenants and lanes by their shares.
    fn next_request(&mut self) -> Request {
        let tenants = &self.served.tenants;
        match self.workload.window {
            Some(len) => {
                let windows = tenants[0].pool.len() / len;
                let first = self.next_window % windows * len;
                self.next_window += 1;
                Request {
                    tenant: 0,
                    lane: 1,
                    first,
                    len,
                }
            }
            None => {
                let tenant = self.rng.pick(tenants.iter().map(|t| t.share));
                let lane = self.rng.pick(LANE_SHARES);
                let first = self.cursors[tenant] % tenants[tenant].pool.len();
                self.cursors[tenant] += 1;
                Request {
                    tenant,
                    lane,
                    first,
                    len: 1,
                }
            }
        }
    }

    fn submit(&self, req: &Request) -> Result<Pending, Rejected> {
        let tenant = &self.served.tenants[req.tenant];
        let session = &tenant.sessions[req.lane];
        if self.workload.window.is_some() {
            let window: &[Arc<[Complex]>] = &tenant.pool[req.first..req.first + req.len];
            Ok(Pending::Window(session.submit_all_shared(window)))
        } else {
            session
                .try_submit(&tenant.pool[req.first])
                .map(Pending::Shot)
        }
    }

    /// Checks served verdicts bit for bit against the direct reference and
    /// scores them against ground truth. Returns whether they matched.
    fn check(&self, req: &Request, verdicts: &Verdicts, phase: &mut Phase) -> bool {
        let tenant = &self.served.tenants[req.tenant];
        let rows = verdicts.rows();
        let span = req.first..req.first + req.len;
        for (row, truth) in rows.iter().zip(&tenant.truth[span.clone()]) {
            phase.levels += row.len() as u64;
            phase.wrong_levels += row.iter().zip(truth).filter(|(a, b)| a != b).count() as u64;
        }
        rows == &tenant.reference[span]
    }

    fn settle(
        &self,
        req: &Request,
        outcome: Result<Verdicts, TicketFailed>,
        phase: &mut Phase,
    ) -> bool {
        let ok = outcome.is_ok_and(|v| self.check(req, &v, phase));
        if ok {
            phase.succeeded += 1;
        } else {
            phase.failed += 1;
        }
        ok
    }

    fn record(&mut self, req: &Request, due_ns: u64, start: u64, end: u64) -> Record {
        let pool = &self.served.tenants[req.tenant].pool;
        self.next_id += 1;
        Record {
            id: self.next_id,
            tenant: req.tenant,
            due_ns,
            submit_start_ns: start,
            submit_end_ns: end,
            seen_ns: 0,
            first_key: self.key.of(&pool[req.first]),
            last_key: self.key.of(&pool[req.first + req.len - 1]),
        }
    }

    /// Sends every pool shot of every tenant once, keeping the workload's
    /// closed-loop depth in flight. Its served verdicts give
    /// `assign_error`, the same for every run of a seed.
    pub fn full_pass(&mut self, tracer: &Tracer) -> Phase {
        let mut requests = Vec::new();
        for (tenant, t) in self.served.tenants.iter().enumerate() {
            let len = self.workload.window.unwrap_or(1);
            for first in (0..t.pool.len()).step_by(len) {
                requests.push(Request {
                    tenant,
                    lane: 1,
                    first,
                    len,
                });
            }
        }
        let mut requests = requests.into_iter();
        self.closed("full-pass", None, Tracing::Off, tracer, |_| requests.next())
    }

    /// Closed loop for `seconds`: keeps the workload's depth in flight and
    /// sends the next request as soon as the oldest completes.
    pub fn closed_loop(
        &mut self,
        name: &'static str,
        seconds: f64,
        tracing: Tracing,
        tracer: &Tracer,
    ) -> Phase {
        self.closed(name, Some(seconds), tracing, tracer, |c| {
            Some(c.next_request())
        })
    }

    /// Runs requests from `source` closed loop until it is exhausted or
    /// `seconds` have passed, then drains what is still in flight. Only
    /// verdicts received before the stop count towards the rate.
    fn closed(
        &mut self,
        name: &'static str,
        seconds: Option<f64>,
        tracing: Tracing,
        tracer: &Tracer,
        mut source: impl FnMut(&mut Self) -> Option<Request>,
    ) -> Phase {
        let mut phase = Phase {
            name,
            ..Phase::default()
        };
        let traced = tracing == Tracing::On;
        let start_ns = tracer.now_ns();
        phase.start_ns = start_ns;
        let stop_ns = seconds.map(|s| start_ns + (s * 1e9) as u64);
        let mut in_flight = std::collections::VecDeque::new();
        let mut stopped = false;
        loop {
            while !stopped && in_flight.len() < self.workload.in_flight {
                let Some(req) = source(self) else {
                    stopped = true;
                    break;
                };
                let t0 = if traced { tracer.now_ns() } else { 0 };
                let submitted = self.submit(&req);
                phase.sent += 1;
                let record = traced.then(|| {
                    let t1 = tracer.now_ns();
                    self.record(&req, t0, t0, t1)
                });
                match submitted {
                    Ok(pending) => in_flight.push_back((req, pending, record)),
                    Err(_) => phase.shed += 1,
                }
            }
            let Some((req, pending, record)) = in_flight.pop_front() else {
                break;
            };
            let outcome = pending.wait();
            let now = tracer.now_ns();
            if self.settle(&req, outcome, &mut phase) && !stopped {
                phase.arrivals.push((now, req.len as u64));
            }
            if let Some(mut record) = record {
                record.seen_ns = now;
                phase.records.push(record);
            }
            if !stopped && stop_ns.is_some_and(|stop| now >= stop) {
                stopped = true;
                phase.elapsed_s = (now - start_ns) as f64 * 1e-9;
            }
        }
        if phase.elapsed_s == 0.0 {
            phase.elapsed_s = (tracer.now_ns() - start_ns) as f64 * 1e-9;
        }
        phase.print();
        phase
    }

    /// Open loop for `seconds`: requests fall due at the workload's rate
    /// whatever the engine does, and each is timed from its due time.
    /// Between events the client parks until the next request is due or a
    /// ticket's waker fires. Every request is waited for; a ticket that
    /// never resolves is caught by the run's watchdog.
    ///
    /// When the client and the pool worker are pinned, both CPUs are kept
    /// out of idle for the phase, so a request is not timed waking a halted
    /// virtual CPU. Closed loops run without: there the threads seldom
    /// idle, and the spinners cost the worker's CPU up to a fifth of its
    /// rate on a busy host.
    pub fn open_loop(&mut self, seconds: f64, tracing: Tracing, tracer: &Tracer) -> Phase {
        let _awake = self.served.pinned.then(|| KeepAwake::start(&[0, 1]));
        let mut phase = Phase {
            name: "open",
            ..Phase::default()
        };
        let traced = tracing == Tracing::On;
        let limit_ns = (self.workload.limit_us * 1e3) as u64;
        let start_ns = tracer.now_ns();
        let end_ns = start_ns + (seconds * 1e9) as u64;
        let gap_s = 1.0 / self.workload.rate_hz;
        let mut due_s = 0.0;
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        let mut in_flight: Vec<(Request, Pending, u64, Option<Record>)> = Vec::new();
        loop {
            let now = tracer.now_ns();
            let due_ns = start_ns + (due_s * 1e9) as u64;
            if due_ns < end_ns && now >= due_ns {
                let req = self.next_request();
                let submitted = self.submit(&req);
                phase.sent += 1;
                if traced {
                    phase.late_us.push((now - due_ns) as f64 * 1e-3);
                }
                let record = traced.then(|| {
                    let t1 = tracer.now_ns();
                    self.record(&req, due_ns, now, t1)
                });
                match submitted {
                    Ok(pending) => in_flight.push((req, pending, due_ns, record)),
                    Err(_) => phase.shed += 1,
                }
                due_s += if self.workload.poisson {
                    -(1.0 - self.rng.unit()).ln() * gap_s
                } else {
                    gap_s
                };
                continue;
            }
            if due_ns >= end_ns && in_flight.is_empty() {
                break;
            }
            let mut i = 0;
            while i < in_flight.len() {
                let Some(outcome) = in_flight[i].1.poll(&waker) else {
                    i += 1;
                    continue;
                };
                let seen = tracer.now_ns();
                let (req, _, due_ns, record) = in_flight.swap_remove(i);
                if self.settle(&req, outcome, &mut phase) {
                    let latency = seen - due_ns;
                    phase.latency.push((due_ns, latency as f64 / 1e3));
                    phase.within_limit += u64::from(latency <= limit_ns);
                }
                if let Some(mut record) = record {
                    record.seen_ns = seen;
                    phase.records.push(record);
                }
            }
            let now = tracer.now_ns();
            if due_ns < end_ns && now < due_ns {
                std::thread::park_timeout(std::time::Duration::from_nanos(due_ns - now));
            } else if due_ns >= end_ns && !in_flight.is_empty() {
                std::thread::park();
            }
        }
        phase.elapsed_s = (tracer.now_ns() - start_ns) as f64 * 1e-9;
        phase.print();
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn open_loop_latency_runs_from_the_due_time_and_includes_lateness() {
        let tracer = Tracer::new(Instant::now());
        let served = crate::workload::tiny_lda(ShotKey::Content, &tracer);
        // Requests fall due every 100 ns, far faster than the client can
        // submit them, so the generator runs ever later.
        let workload = Workload {
            name: "test",
            window: None,
            in_flight: 4,
            rate_hz: 1e7,
            poisson: false,
            limit_us: 1e9,
        };
        let mut client = Client::new(workload, &served, 9);
        let phase = client.open_loop(0.002, Tracing::On, &tracer);
        assert_eq!(phase.failed, 0);
        assert!(!phase.records.is_empty());
        assert_eq!(phase.records.len() as u64, phase.succeeded);
        let mut from_records: Vec<f64> = phase
            .records
            .iter()
            .map(|r| {
                assert!(r.due_ns <= r.submit_start_ns);
                assert!(r.submit_end_ns <= r.seen_ns);
                (r.seen_ns - r.due_ns) as f64 / 1e3
            })
            .collect();
        let mut latency: Vec<f64> = phase.latency.iter().map(|&(_, us)| us).collect();
        from_records.sort_by(f64::total_cmp);
        latency.sort_by(f64::total_cmp);
        assert_eq!(latency, from_records);
        // The lateness is inside the latency, not on top of a clock that
        // starts at submission.
        let late: f64 = phase.late_us.iter().sum();
        let worst = phase.late_us.iter().copied().fold(0.0, f64::max);
        assert!(late > 0.0);
        assert!(latency.last().copied().unwrap() >= worst);
        assert_eq!(served.fleet.aggregate_stats().outstanding(), 0);
    }
}
