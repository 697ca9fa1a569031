//! The shared worker pool: a bounded set of threads draining every
//! tenant's queue.
//!
//! PR 8's fleet spawned one worker thread per model, so per-model thread
//! overhead scaled with the roster and cheap plan-fused tenants paid a
//! full lock/wake round-trip per ticket. The pool inverts that: `MLR_FLEET_WORKERS`
//! threads scan a shared roster **round-robin across tenants** (a rotating
//! cursor, so no tenant is structurally favoured) and drain each claimed
//! tenant **lane-priority within the tenant** (realtime before standard
//! before bulk — [`super::Queue::drain_batch`] unchanged). All sessions of
//! the same fingerprint land in the same tenant queue, so one
//! `predict_batch` call serves them together.
//!
//! Fairness under faults: a tenant whose model blocks (e.g. a
//! [`super::fault::FaultyDiscriminator`] holding a [`super::fault::Gate`])
//! pins only the one thread that claimed its batch — the `draining` flag
//! keeps other threads off that tenant, and they keep serving healthy
//! fingerprints. The workspace's fault tests pin this with zero sleeps.
//!
//! The flush rule is work-conserving: a free thread drains any tenant
//! that has queued shots and no other drainer, up to `max_batch` at a
//! time. Batches form from service time alone — while one batch is being
//! classified the next one queues up behind it — so nothing ever waits on
//! a timer. A thread sleeps only when every non-empty tenant already has
//! a drainer, and each drainer rescans the roster when it finishes.
//!
//! Wakes are a single [`Condvar`] shared by all threads. Submitters call
//! [`PoolCore::wake_one`] only when a queue goes from empty to non-empty
//! (see [`super::wake_worthy`]).

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use super::{lock_recovering, Tenant};

/// The state shared between pool threads and every [`super::Session`]:
/// the tenant roster and the wake condvar.
pub(crate) struct PoolCore {
    roster: Mutex<Roster>,
    /// The pool-wide wake signal: new drainable work or shutdown.
    wake: Condvar,
}

struct Roster {
    /// `(fingerprint, tenant)` sorted by fingerprint, so scan order — and
    /// therefore flush order under contention — is deterministic.
    tenants: Vec<(u64, Arc<Tenant>)>,
    /// Round-robin scan cursor: each drain starts scanning *after* the
    /// last tenant served, so a chatty tenant cannot starve its
    /// neighbours.
    cursor: usize,
    closed: bool,
}

impl PoolCore {
    /// Wakes one pool thread. Synchronises on the roster mutex first so a
    /// thread between "found nothing drainable" and "wait" cannot miss
    /// the signal (the classic lost-wakeup window).
    pub(crate) fn wake_one(&self) {
        drop(lock_recovering(&self.roster));
        self.wake.notify_one();
    }

    /// Adds (or replaces) a tenant under its fingerprint; returns the
    /// replaced tenant, if any, so the fleet can retire it.
    pub(crate) fn add(&self, key: u64, tenant: Arc<Tenant>) -> Option<Arc<Tenant>> {
        let replaced = {
            let mut roster = lock_recovering(&self.roster);
            match roster.tenants.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(i) => Some(std::mem::replace(&mut roster.tenants[i].1, tenant)),
                Err(i) => {
                    roster.tenants.insert(i, (key, tenant));
                    None
                }
            }
        };
        self.wake.notify_all();
        replaced
    }

    /// Removes a tenant from the roster (its queued work is no longer the
    /// pool's responsibility — the caller drains it).
    pub(crate) fn remove(&self, key: u64) -> Option<Arc<Tenant>> {
        let mut roster = lock_recovering(&self.roster);
        match roster.tenants.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => {
                let (_, tenant) = roster.tenants.remove(i);
                if roster.cursor > i {
                    roster.cursor -= 1;
                }
                Some(tenant)
            }
            Err(_) => None,
        }
    }
}

/// A bounded pool of worker threads over a [`PoolCore`]. Dropping it
/// closes every roster tenant, drains their queues, and joins the
/// threads — outstanding tickets still resolve.
pub(crate) struct WorkerPool {
    core: Arc<PoolCore>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads.max(1)` workers named `{name}-{i}`.
    pub(crate) fn new(threads: usize, name: &str) -> Self {
        let core = Arc::new(PoolCore {
            roster: Mutex::new(Roster {
                tenants: Vec::new(),
                cursor: 0,
                closed: false,
            }),
            wake: Condvar::new(),
        });
        let threads = (0..threads.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || pool_loop(&core))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self { core, threads }
    }

    pub(crate) fn core(&self) -> Arc<PoolCore> {
        Arc::clone(&self.core)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut roster = lock_recovering(&self.core.roster);
            roster.closed = true;
            // Close every tenant so submissions stop; the threads drain
            // what is already queued before they exit.
            for (_, tenant) in &roster.tenants {
                tenant.close();
            }
        }
        self.core.wake.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker loop: claim a drainable tenant (round-robin), classify its
/// batch outside the roster lock, repeat; otherwise sleep until a
/// submitter, a finishing drainer or shutdown wakes us.
fn pool_loop(core: &PoolCore) {
    let mut roster = lock_recovering(&core.roster);
    loop {
        let n = roster.tenants.len();
        let mut claimed = None;
        for k in 0..n {
            let idx = (roster.cursor + 1 + k) % n;
            let tenant = Arc::clone(&roster.tenants[idx].1);
            if let Some(batch) = tenant.try_begin_drain() {
                roster.cursor = idx;
                claimed = Some((tenant, batch));
                break;
            }
        }
        if let Some((tenant, batch)) = claimed {
            // Classify with the roster unlocked: sibling threads keep
            // scanning, submitters keep enqueueing.
            drop(roster);
            tenant.classify_and_resolve(batch, true);
            roster = lock_recovering(&core.roster);
            continue;
        }
        // Nothing drainable: every non-empty tenant has a drainer, which
        // rescans when it finishes. Exit once shutdown has emptied them.
        if roster.closed && roster.tenants.iter().all(|(_, t)| t.queued() == 0) {
            // Cascade the shutdown: a sibling may be waiting while we
            // observed the queues empty.
            core.wake.notify_all();
            return;
        }
        roster = core
            .wake
            .wait(roster)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}
