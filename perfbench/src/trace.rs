//! Spans around the calls into each layer, kept in memory and written out
//! when the run ends, plus the timing [`Discriminator`] wrapper through
//! which the engine's only call into a model passes.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mlr_core::{Discriminator, TrainedModel};
use mlr_num::Complex;

/// One timed interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The request this span serves, when it serves exactly one.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's clock and span list. Set-up always records its few spans;
/// request and flush spans come only from traced phases.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Appends a span and returns its index (for children's `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Writes every span as one CSV row (`index,name,start_ns,end_ns,
    /// parent,request`), creating the parent directory.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,start_ns,end_ns,parent,request")?;
        let field = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_default();
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i},{},{},{},{},{}",
                s.name,
                s.start_ns,
                s.end_ns,
                field(s.parent.map(|p| p as u64)),
                field(s.request)
            )?;
        }
        out.flush()
    }
}

pub fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and a
/// child reaching outside its parent is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                }
                reach = reach.max(hi);
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// How flushed shots are identified: by the address of their samples
/// (vectored windows share the client's `Arc` storage, so the engine
/// hands the model the client's own pointers) or by a tag of their first
/// samples (scalar submissions are copied into engine buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShotKey {
    Pointer,
    Content,
}

impl ShotKey {
    pub fn of(self, shot: &[Complex]) -> u64 {
        match self {
            ShotKey::Pointer => shot.as_ptr() as u64,
            ShotKey::Content => shot.iter().take(3).fold(0x9E37_79B9_7F4A_7C15, |h, c| {
                (h ^ c.re.to_bits()).rotate_left(23) ^ c.im.to_bits().rotate_left(41)
            }),
        }
    }
}

/// One `predict_batch` call made by the engine.
#[derive(Debug, Clone)]
pub struct Flush {
    pub tenant: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// [`ShotKey`] of every shot in the batch, in batch order.
    pub keys: Vec<u64>,
}

/// Flushes recorded by every [`Timed`] wrapper of a run. Recording is off
/// until [`FlushLog::set_recording`] turns it on.
pub struct FlushLog {
    epoch: Instant,
    key: ShotKey,
    recording: AtomicBool,
    flushes: Mutex<Vec<Flush>>,
}

impl FlushLog {
    pub fn new(epoch: Instant, key: ShotKey) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            key,
            recording: AtomicBool::new(false),
            flushes: Mutex::new(Vec::new()),
        })
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn key(&self) -> ShotKey {
        self.key
    }

    /// Removes and returns everything recorded so far, in time order.
    pub fn take(&self) -> Vec<Flush> {
        std::mem::take(&mut *self.flushes.lock().expect("flush log lock poisoned"))
    }
}

/// A tenant's model as the engine sees it: every call goes straight to
/// the wrapped model, and `predict_batch` is timed into the [`FlushLog`]
/// while it records.
pub struct Timed {
    pub model: Arc<TrainedModel>,
    pub tenant: usize,
    pub log: Arc<FlushLog>,
}

impl Discriminator for Timed {
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        self.model.predict_shot(raw)
    }

    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        if !self.log.recording.load(Ordering::Relaxed) {
            return self.model.predict_batch(shots);
        }
        let start_ns = nanos_since(self.log.epoch);
        let verdicts = self.model.predict_batch(shots);
        let end_ns = nanos_since(self.log.epoch);
        let keys = shots.iter().map(|s| self.log.key.of(s)).collect();
        self.log
            .flushes
            .lock()
            .expect("flush log lock poisoned")
            .push(Flush {
                tenant: self.tenant,
                start_ns,
                end_ns,
                keys,
            });
        verdicts
    }

    fn name(&self) -> &str {
        self.model.name()
    }

    fn n_qubits(&self) -> usize {
        self.model.n_qubits()
    }

    fn weight_count(&self) -> usize {
        self.model.weight_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_core::{registry, DiscriminantKind, DiscriminatorSpec};
    use mlr_sim::{ChipConfig, TraceDataset};

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("submit", 10, 20, Some(0)),
            // Two overlapping children count their union (40..70) once.
            span("classify", 40, 60, Some(0)),
            span("resolve", 50, 70, Some(0)),
            // A child leaking past its parent is clipped to it.
            span("late", 90, 130, Some(0)),
            // A grandchild is charged to its own parent only.
            span("inner", 12, 15, Some(1)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 10 - 30 - 10, 7, 20, 20, 40, 3]
        );
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        assert_eq!(self_times(&[span("leaf", 5, 9, None)]), vec![4]);
    }

    #[test]
    fn timing_wrapper_returns_the_wrapped_verdicts_unchanged() {
        let mut chip = ChipConfig::five_qubit_paper();
        chip.n_samples = 60;
        let ds = TraceDataset::generate(&chip, 3, 4, 3);
        let split = ds.paper_split(3);
        let model = Arc::new(registry::fit(
            &DiscriminatorSpec::Discriminant(DiscriminantKind::Qda),
            &ds,
            &split,
            3,
        ));
        let shots: Vec<&[Complex]> = (0..ds.len()).map(|i| ds.raw(i)).collect();
        let direct = model.predict_batch(&shots);
        let log = FlushLog::new(Instant::now(), ShotKey::Pointer);
        let timed = Timed {
            model: Arc::clone(&model),
            tenant: 2,
            log: Arc::clone(&log),
        };
        assert_eq!(timed.predict_batch(&shots), direct);
        assert!(log.take().is_empty(), "recording starts off");
        log.set_recording(true);
        assert_eq!(timed.predict_batch(&shots), direct);
        assert_eq!(timed.predict_shot(shots[5]), direct[5]);
        let flushes = log.take();
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].tenant, 2);
        assert_eq!(flushes[0].keys[0], shots[0].as_ptr() as u64);
        assert!(flushes[0].start_ns <= flushes[0].end_ns);
    }

    #[test]
    fn content_keys_survive_a_copy_and_separate_shots() {
        let a = vec![Complex { re: 1.0, im: -2.0 }; 8];
        let mut b = a.clone();
        assert_eq!(ShotKey::Content.of(&a), ShotKey::Content.of(&b));
        assert_ne!(ShotKey::Pointer.of(&a), ShotKey::Pointer.of(&b));
        b[1].im = 0.5;
        assert_ne!(ShotKey::Content.of(&a), ShotKey::Content.of(&b));
    }
}
