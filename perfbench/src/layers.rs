//! Per-layer numbers of a traced run: requests matched to the engine
//! flushes that carried them, and the plan's trunk and heads timed apart.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use mlr_core::{CompiledPlan, DiscriminantAnalysis, DiscriminantKind};
use mlr_num::Complex;

use crate::drive::Record;
use crate::trace::{Flush, Tracer};
use crate::workload::Served;

/// One request split into the engine's stages, µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stages {
    pub submit_us: f64,
    pub queue_wait_us: f64,
    pub classify_us: f64,
    pub resolve_us: f64,
    pub latency_us: f64,
}

/// Matches each traced request to the flushes that carried its first and
/// last shot — the first flush of its tenant, starting after the request
/// was submitted, whose batch holds the shot's key — and records the
/// request's spans under `parent`: `request` (due to seen) with children
/// `engine.submit`, `engine.queue_wait` (submit returned to the first
/// flush starting), `engine.classify` (first flush start to last flush
/// end) and `engine.resolve` (last flush end to seen). Every flush
/// becomes an `engine.flush` span. Returns the matched requests' stages
/// and how many requests matched no flush.
pub fn split_requests(
    records: &[Record],
    flushes: &[Flush],
    parent: usize,
    tracer: &mut Tracer,
) -> (Vec<Stages>, usize) {
    let mut by_key: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (i, f) in flushes.iter().enumerate() {
        tracer.push("engine.flush", f.start_ns, f.end_ns, Some(parent), None);
        for &key in &f.keys {
            by_key.entry((f.tenant, key)).or_default().push(i);
        }
    }
    let carrier = |tenant: usize, key: u64, after_ns: u64| -> Option<&Flush> {
        let ids = by_key.get(&(tenant, key))?;
        let at = ids.partition_point(|&i| flushes[i].start_ns < after_ns);
        ids.get(at).map(|&i| &flushes[i])
    };
    let mut stages = Vec::with_capacity(records.len());
    let mut unmatched = 0;
    for r in records {
        let (Some(first), Some(last)) = (
            carrier(r.tenant, r.first_key, r.submit_start_ns),
            carrier(r.tenant, r.last_key, r.submit_start_ns),
        ) else {
            unmatched += 1;
            continue;
        };
        let queued_until = first.start_ns.max(r.submit_end_ns);
        let classified_until = last.end_ns.max(queued_until);
        let seen = r.seen_ns.max(classified_until);
        let req = tracer.push("request", r.due_ns, seen, Some(parent), Some(r.id));
        for (name, start, end) in [
            ("engine.submit", r.submit_start_ns, r.submit_end_ns),
            ("engine.queue_wait", r.submit_end_ns, queued_until),
            ("engine.classify", queued_until, classified_until),
            ("engine.resolve", classified_until, seen),
        ] {
            tracer.push(name, start, end, Some(req), Some(r.id));
        }
        let us = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e3;
        stages.push(Stages {
            submit_us: us(r.submit_start_ns, r.submit_end_ns),
            queue_wait_us: us(r.submit_end_ns, queued_until),
            classify_us: us(queued_until, classified_until),
            resolve_us: us(classified_until, seen),
            latency_us: us(r.due_ns, seen),
        });
    }
    (stages, unmatched)
}

/// A tenant's compiled plan timed in two calls per window: the trunk
/// alone (`features_batch`) and the whole plan (`predict_batch`).
#[derive(Debug, Clone, Copy)]
pub struct PlanCost {
    pub tenant: usize,
    pub trunk_us_per_shot: f64,
    pub heads_us_per_shot: f64,
}

/// The plan a tenant serves through, when it has one: OURS exposes its
/// plan; LDA's is rebuilt by fitting the same training split again (the
/// fit is deterministic, and the rebuilt plan must reproduce the
/// tenant's reference verdicts); QDA serves layered.
fn plan_of(served: &Served, tenant: usize) -> Option<CompiledPlan> {
    let t = &served.tenants[tenant];
    if let Some(ours) = t.model.as_ours() {
        return Some(ours.plan().clone());
    }
    if t.label != "LDA" {
        return None;
    }
    let lda = DiscriminantAnalysis::fit(&served.train, &served.split, DiscriminantKind::Lda);
    let plan = lda.plan()?.clone();
    let refs: Vec<&[Complex]> = t.pool.iter().map(|s| &s[..]).collect();
    assert_eq!(
        plan.predict_batch(&refs),
        t.reference,
        "refitted LDA plan differs from the served tenant"
    );
    Some(plan)
}

/// Times every plan tenant's trunk and whole plan over `window`-shot
/// slices of its pool, alternating the two calls, for about
/// `seconds_per_tenant` each, recording `plan.features_batch` and
/// `plan.predict_batch` spans under `parent`.
pub fn plan_costs(
    served: &Served,
    window: usize,
    seconds_per_tenant: f64,
    parent: usize,
    tracer: &mut Tracer,
) -> Vec<PlanCost> {
    let mut costs = Vec::new();
    for tenant in 0..served.tenants.len() {
        let Some(plan) = plan_of(served, tenant) else {
            continue;
        };
        let pool = &served.tenants[tenant].pool;
        let windows: Vec<Vec<&[Complex]>> = pool
            .chunks_exact(window)
            .map(|w| w.iter().map(|s| &s[..]).collect())
            .collect();
        let (mut trunk_ns, mut whole_ns, mut shots) = (0u64, 0u64, 0usize);
        let until = Instant::now() + std::time::Duration::from_secs_f64(seconds_per_tenant);
        for w in windows.iter().cycle() {
            let t0 = tracer.now_ns();
            black_box(plan.features_batch(black_box(w)));
            let t1 = tracer.now_ns();
            black_box(plan.predict_batch(black_box(w)));
            let t2 = tracer.now_ns();
            tracer.push("plan.features_batch", t0, t1, Some(parent), None);
            tracer.push("plan.predict_batch", t1, t2, Some(parent), None);
            trunk_ns += t1 - t0;
            whole_ns += t2 - t1;
            shots += w.len();
            if Instant::now() >= until {
                break;
            }
        }
        let per_shot = |ns: u64| ns as f64 * 1e-3 / shots as f64;
        costs.push(PlanCost {
            tenant,
            trunk_us_per_shot: per_shot(trunk_ns),
            heads_us_per_shot: (per_shot(whole_ns) - per_shot(trunk_ns)).max(0.0),
        });
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_times;

    fn record(id: u64, due: u64, submit: (u64, u64), seen: u64, key: u64) -> Record {
        Record {
            id,
            tenant: 0,
            due_ns: due,
            submit_start_ns: submit.0,
            submit_end_ns: submit.1,
            seen_ns: seen,
            first_key: key,
            last_key: key,
        }
    }

    #[test]
    fn requests_are_matched_to_the_first_flush_after_their_submission() {
        let flushes = vec![
            // Key 7 served once before the request was sent: not its flush.
            Flush {
                tenant: 0,
                start_ns: 100,
                end_ns: 150,
                keys: vec![7],
            },
            Flush {
                tenant: 0,
                start_ns: 400,
                end_ns: 600,
                keys: vec![3, 7],
            },
            // Same key on another tenant: never matched.
            Flush {
                tenant: 1,
                start_ns: 300,
                end_ns: 310,
                keys: vec![7],
            },
        ];
        let mut tracer = Tracer::new(Instant::now());
        let phase = tracer.push("phase", 0, 1_000, None, None);
        let records = [
            record(1, 180, (200, 250), 700, 7),
            record(2, 180, (200, 250), 700, 99),
        ];
        let (stages, unmatched) = split_requests(&records, &flushes, phase, &mut tracer);
        assert_eq!(unmatched, 1);
        assert_eq!(
            stages,
            vec![Stages {
                submit_us: 0.05,
                queue_wait_us: 0.15,
                classify_us: 0.2,
                resolve_us: 0.1,
                latency_us: 0.52,
            }]
        );
        // The request's children tile it; what is left is the 20 ns the
        // generator ran late.
        let selfs = self_times(&tracer.spans);
        let req = tracer
            .spans
            .iter()
            .position(|s| s.name == "request")
            .unwrap();
        assert_eq!(selfs[req], 20);
    }
}
