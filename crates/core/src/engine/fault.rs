//! Deterministic fault injection for the serving layer.
//!
//! A serving fleet must keep its failure promises: a model that panics,
//! stalls, or returns garbage fails *its own* tickets loudly and leaves
//! every other worker untouched. [`FaultyDiscriminator`] wraps any real
//! discriminator and injects exactly one such fault, on exactly the
//! flush the test chooses — and "stalls" are built on a [`Gate`]
//! (condvar latch) rather than sleeps, so the fault-injection tests are
//! deterministic under any scheduler.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use mlr_num::Complex;

use super::lock_recovering;
use crate::spec::BoxedDiscriminator;
use crate::Discriminator;

/// A reusable open/closed latch: [`Gate::pass`] blocks while the gate is
/// closed, [`Gate::open`] releases every blocked caller at once.
///
/// The deterministic stand-in for "this model is slow": a test holds a
/// gated model's gate closed, floods the engine to a chosen queue depth,
/// then opens the gate — no wall-clock sleeps, no racing a scheduler.
#[derive(Debug, Default)]
pub struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    /// A closed gate.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Opens the gate and wakes everything blocked in [`Gate::pass`].
    pub fn open(&self) {
        *lock_recovering(&self.open) = true;
        self.cv.notify_all();
    }

    /// Closes the gate again; subsequent [`Gate::pass`] calls block.
    pub fn close(&self) {
        *lock_recovering(&self.open) = false;
    }

    /// Blocks until the gate is open.
    pub fn pass(&self) {
        let mut open = lock_recovering(&self.open);
        while !*open {
            open = self
                .cv
                .wait(open)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Which fault to inject, and on which `predict_batch` call (0-based —
/// faults target the serving path, which only ever classifies through
/// [`Discriminator::predict_batch`]).
#[derive(Debug, Clone)]
pub enum FaultMode {
    /// Panic on the `n`-th batch; earlier batches classify normally. The
    /// engine must fail that batch's tickets and close, not hang.
    PanicOnFlush(usize),
    /// On the `n`-th batch, return one verdict too few — the
    /// wrong-*batch*-shape fault. The engine must treat it exactly like a
    /// panic (silently zipping would strand the last ticket forever).
    TruncateBatch(usize),
    /// On the `n`-th batch, return verdicts one level too wide per shot —
    /// the wrong-*verdict*-shape fault.
    WidenVerdicts(usize),
    /// Block every batch on the gate until the test opens it: the
    /// deterministic "slow model". Classification is unchanged once the
    /// gate opens.
    Hold(Arc<Gate>),
}

/// A wrapper that serves exactly like its inner discriminator until the
/// configured [`FaultMode`] triggers; see the [module docs](self).
pub struct FaultyDiscriminator {
    inner: BoxedDiscriminator,
    mode: FaultMode,
    name: String,
    batches: AtomicUsize,
}

impl FaultyDiscriminator {
    /// Wraps `inner`, injecting `mode` on the serving path.
    pub fn new(inner: BoxedDiscriminator, mode: FaultMode) -> Self {
        let name = format!("FAULTY({})", inner.name());
        Self {
            inner,
            mode,
            name,
            batches: AtomicUsize::new(0),
        }
    }

    /// Boxed constructor, ready for [`crate::ReadoutEngine::new`].
    pub fn boxed(inner: BoxedDiscriminator, mode: FaultMode) -> BoxedDiscriminator {
        Box::new(Self::new(inner, mode))
    }

    /// How many batches the serving path has asked this model for.
    pub fn batches_seen(&self) -> usize {
        self.batches.load(Ordering::Relaxed)
    }
}

impl Discriminator for FaultyDiscriminator {
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        // Faults are injected on the serving (batch) path only; the
        // per-shot path stays honest so tests can compute expectations.
        self.inner.predict_shot(raw)
    }

    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        let call = self.batches.fetch_add(1, Ordering::Relaxed);
        match &self.mode {
            FaultMode::PanicOnFlush(n) if call == *n => {
                panic!("injected fault: model panic on batch {call}")
            }
            FaultMode::TruncateBatch(n) if call == *n => {
                let mut verdicts = self.inner.predict_batch(shots);
                verdicts.pop();
                verdicts
            }
            FaultMode::WidenVerdicts(n) if call == *n => {
                let mut verdicts = self.inner.predict_batch(shots);
                for verdict in &mut verdicts {
                    verdict.push(0);
                }
                verdicts
            }
            FaultMode::Hold(gate) => {
                gate.pass();
                self.inner.predict_batch(shots)
            }
            _ => self.inner.predict_batch(shots),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn weight_count(&self) -> usize {
        self.inner.weight_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes the length of each trace as a single-qubit verdict.
    struct Echo;

    impl Discriminator for Echo {
        fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
            vec![raw.len()]
        }
        fn name(&self) -> &str {
            "ECHO"
        }
        fn n_qubits(&self) -> usize {
            1
        }
        fn weight_count(&self) -> usize {
            0
        }
    }

    #[test]
    fn faults_trigger_only_on_their_batch() {
        let faulty = FaultyDiscriminator::new(Box::new(Echo), FaultMode::TruncateBatch(1));
        let shot = vec![Complex::ZERO; 3];
        let shots: Vec<&[Complex]> = vec![&shot, &shot];
        assert_eq!(faulty.predict_batch(&shots).len(), 2);
        assert_eq!(faulty.predict_batch(&shots).len(), 1, "truncated batch");
        assert_eq!(faulty.predict_batch(&shots).len(), 2, "healthy again");
        assert_eq!(faulty.batches_seen(), 3);
        assert_eq!(faulty.name(), "FAULTY(ECHO)");
        assert_eq!(faulty.predict_shot(&shot), vec![3], "per-shot path honest");
    }

    #[test]
    fn widen_verdicts_changes_shape_not_count() {
        let faulty = FaultyDiscriminator::new(Box::new(Echo), FaultMode::WidenVerdicts(0));
        let shot = vec![Complex::ZERO; 2];
        let shots: Vec<&[Complex]> = vec![&shot];
        let verdicts = faulty.predict_batch(&shots);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].len(), 2, "one level too wide");
    }

    #[test]
    fn gate_blocks_until_opened() {
        let gate = Gate::new();
        let faulty = Arc::new(FaultyDiscriminator::new(
            Box::new(Echo),
            FaultMode::Hold(Arc::clone(&gate)),
        ));
        let worker = {
            let faulty = Arc::clone(&faulty);
            std::thread::spawn(move || {
                let shot = vec![Complex::ZERO; 4];
                let shots: Vec<&[Complex]> = vec![&shot];
                faulty.predict_batch(&shots)
            })
        };
        // The worker cannot classify before the gate opens; once it does,
        // the held batch completes with correct verdicts.
        gate.open();
        assert_eq!(worker.join().unwrap(), vec![vec![4]]);
    }
}
