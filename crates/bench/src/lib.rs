//! Shared harness for the paper reproduction (`mlr repro`, see
//! [`repro`]), the serving fleet drivers ([`fleet`]), throughput
//! measurement, `BENCH_*.json` rows, dataset and model caches, and table
//! formatting.
//!
//! Environment variables read here:
//!
//! * `MLR_DATASET_DIR` — binary dataset cache directory (default
//!   `datasets/`); see [`cached_dataset`];
//! * `MLR_MODEL_DIR` — trained-model cache directory (default `models/`);
//!   see [`cached_model`].
//!
//! [`repro::Knobs`] reads `MLR_SHOTS`, `MLR_SEED` and `MLR_QEC_TRIALS`;
//! `MLR_THREADS` (worker threads for generation and batch inference) is
//! read by `mlr_core::batch_threads`.

#![deny(missing_docs)]

pub mod fleet;
pub mod repro;

use std::path::PathBuf;
use std::time::Instant;

use mlr_core::{registry, Discriminator, DiscriminatorSpec, TrainedModel};
use mlr_num::Complex;
use mlr_sim::{ChipConfig, DatasetSpec, DatasetSplit, TraceDataset};

/// The binary dataset cache directory: `MLR_DATASET_DIR` when set,
/// `datasets/` under the working directory otherwise.
pub fn dataset_dir() -> PathBuf {
    std::env::var_os("MLR_DATASET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("datasets"))
}

/// Loads the dataset described by `spec` from the binary cache
/// ([`dataset_dir`]), simulating it on a miss.
///
/// A freshly simulated dataset is written back only when caching was asked
/// for — `MLR_DATASET_DIR` is set or the default `datasets/` directory
/// already exists (`mlr dataset generate` creates it) — so a bare repro
/// run never litters the working directory. Corrupt or stale cache files
/// are reported and regenerated, never fatal.
pub fn cached_dataset(spec: &DatasetSpec) -> TraceDataset {
    let dir = dataset_dir();
    match spec.load_cached(&dir) {
        Ok(Some(ds)) => {
            eprintln!(
                "[dataset] loaded {} shots from cache {}",
                ds.len(),
                spec.cache_path(&dir).display()
            );
            return ds;
        }
        Ok(None) => {}
        Err(e) => eprintln!("[dataset] ignoring unusable cache file: {e}"),
    }
    let ds = spec.generate();
    let caching_enabled = std::env::var_os("MLR_DATASET_DIR").is_some() || dir.is_dir();
    if caching_enabled {
        match spec.store_cached(&dir, &ds) {
            Ok(path) => eprintln!("[dataset] cached {} shots at {}", ds.len(), path.display()),
            Err(e) => eprintln!("[dataset] could not write cache: {e}"),
        }
    }
    ds
}

/// [`cached_dataset`] for the paper's natural-leakage methodology on
/// `config` — the generation every fidelity artifact shares.
pub fn cached_natural_dataset(
    config: &ChipConfig,
    shots_per_state: usize,
    seed: u64,
) -> TraceDataset {
    cached_dataset(&DatasetSpec::natural(config.clone(), shots_per_state, seed))
}

/// The trained-model cache directory: `MLR_MODEL_DIR` when set, `models/`
/// under the working directory otherwise.
pub fn model_dir() -> PathBuf {
    std::env::var_os("MLR_MODEL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("models"))
}

/// Loads the model `spec` trained on (`dataset_spec`, `seed`) from the
/// model cache ([`model_dir`]), fitting it on a miss.
///
/// The cache key chains the design fingerprint, the dataset fingerprint
/// and the seed (`mlr_core::registry::model_fingerprint`), so any change
/// to hyper-parameters, chip, shot budget, simulator revision or seed is
/// a miss rather than a stale hit. Like the dataset cache, a fresh fit is
/// written back only when caching was asked for — `MLR_MODEL_DIR` is set
/// or the default `models/` directory exists — and unusable cache files
/// are reported and refitted, never fatal.
///
/// `split` must be the split the caller evaluates against; the cache key
/// does not hash it because every harness derives it deterministically
/// from the same `seed` (`TraceDataset::paper_split`).
pub fn cached_model(
    spec: &DiscriminatorSpec,
    dataset_spec: &DatasetSpec,
    dataset: &TraceDataset,
    split: &DatasetSplit,
    seed: u64,
) -> TrainedModel {
    let dir = model_dir();
    let fp = registry::model_fingerprint(spec, dataset_spec.fingerprint(), seed);
    let path = dir.join(format!("mlr-model-{fp:016x}.json"));
    if path.is_file() {
        match registry::load_json_file(&path) {
            Ok(model) if model.spec() == spec => {
                eprintln!("[model] loaded {} from cache {}", spec, path.display());
                return model;
            }
            Ok(model) => eprintln!(
                "[model] cache {} holds {}, expected {} — refitting",
                path.display(),
                model.spec(),
                spec
            ),
            Err(e) => eprintln!("[model] ignoring unusable cache file: {e}"),
        }
    }
    let t = Instant::now();
    let model = registry::fit(spec, dataset, split, seed);
    eprintln!("[model] {} fit in {:.1}s", spec, t.elapsed().as_secs_f64());
    let caching_enabled = std::env::var_os("MLR_MODEL_DIR").is_some() || dir.is_dir();
    if caching_enabled {
        match store_model(&dir, &path, &model) {
            Ok(()) => eprintln!("[model] cached {} at {}", spec, path.display()),
            Err(e) => eprintln!("[model] could not write cache: {e}"),
        }
    }
    model
}

/// Writes a model cache entry atomically (tmp + rename), creating `dir`
/// if needed.
fn store_model(
    dir: &std::path::Path,
    path: &std::path::Path,
    model: &TrainedModel,
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension("json.tmp");
    model.save_json_file(&tmp)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Shots-per-second of a discriminator's per-shot loop vs its batch path
/// over the same shots, measured by [`measure_throughput`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Design name.
    pub design: String,
    /// Sequential `predict_shot` loop, in shots per second.
    pub per_shot_rate: f64,
    /// One `predict_batch` call, in shots per second.
    pub batch_rate: f64,
    /// Shots measured.
    pub n_shots: usize,
}

impl ThroughputReport {
    /// Batch speedup over the per-shot loop.
    pub fn speedup(&self) -> f64 {
        self.batch_rate / self.per_shot_rate
    }
}

/// Times a sequential `predict_shot` loop against one `predict_batch`
/// call over `shots`, checking that the two paths agree.
///
/// Each path runs three timed passes after a warm-up; the fastest pass
/// counts, which suppresses scheduler and allocator jitter the way
/// criterion's statistics would.
///
/// Agreement is budgeted rather than bit-exact: for designs whose batch
/// path uses the fused (demodulation-folded) kernels, per-shot and batch
/// features differ at the ~1e-13 floating-point-reassociation level, so a
/// shot sitting exactly on a decision boundary can legitimately flip.
/// More than 0.1 % of shots disagreeing means a real divergence.
///
/// # Panics
///
/// Panics if `shots` is empty or the paths disagree on more than 0.1 % of
/// shots.
pub fn measure_throughput(
    disc: &(impl Discriminator + ?Sized),
    shots: &[&[Complex]],
) -> ThroughputReport {
    assert!(!shots.is_empty(), "no shots to measure");
    let warm = shots.len().min(64);
    let _ = disc.predict_batch(&shots[..warm]);
    let _: Vec<Vec<usize>> = shots[..warm]
        .iter()
        .map(|raw| disc.predict_shot(raw))
        .collect();

    let mut t_per_shot = f64::INFINITY;
    let mut t_batch = f64::INFINITY;
    let mut per_shot = Vec::new();
    let mut batch = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        per_shot = shots.iter().map(|raw| disc.predict_shot(raw)).collect();
        t_per_shot = t_per_shot.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        batch = disc.predict_batch(shots);
        t_batch = t_batch.min(t.elapsed().as_secs_f64());
    }
    let mismatches = per_shot.iter().zip(&batch).filter(|(a, b)| a != b).count();
    assert!(
        mismatches * 1000 <= shots.len(),
        "batch path diverged from per-shot path on {mismatches}/{} shots",
        shots.len()
    );

    ThroughputReport {
        design: disc.name().to_owned(),
        per_shot_rate: shots.len() as f64 / t_per_shot,
        batch_rate: shots.len() as f64 / t_batch,
        n_shots: shots.len(),
    }
}

/// Times `model`'s **reference** batch path (`predict_batch_layered`:
/// `plan::eval_batch` on the unfused graph for the plan families) over
/// `shots`: three passes after a warm-up, fastest wins — the before-side
/// of the plan-vs-reference throughput comparison.
///
/// # Panics
///
/// Panics if `shots` is empty.
pub fn measure_layered_rate(model: &TrainedModel, shots: &[&[Complex]]) -> f64 {
    assert!(!shots.is_empty(), "no shots to measure");
    let warm = shots.len().min(64);
    let _ = model.predict_batch_layered(&shots[..warm]);
    let mut t_best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let _ = model.predict_batch_layered(shots);
        t_best = t_best.min(t.elapsed().as_secs_f64());
    }
    shots.len() as f64 / t_best
}

/// One machine-readable throughput measurement — a row of the repo-root
/// `BENCH_throughput.json` trajectory that tracks serving performance
/// across commits.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Registry design name, with a `-layered` suffix for reference rows.
    pub design: String,
    /// Sustained batch throughput, shots per second.
    pub shots_per_sec: f64,
    /// Shots per measured batch call.
    pub batch: usize,
    /// Worker threads used (the resolved `MLR_THREADS`).
    pub threads: usize,
    /// `git rev-parse --short HEAD` at measurement time (`"unknown"`
    /// outside a git checkout).
    pub git_rev: String,
    /// The instruction set the plans' bank kernel ran on (`"scalar"`,
    /// `"avx2"` or `"avx512"`, see [`simd_tier`]); `None` on rows
    /// recorded before the field existed.
    pub simd: Option<String>,
}

impl BenchRow {
    fn to_json(&self) -> serde::JsonValue {
        let mut fields = vec![
            (
                "design".to_owned(),
                serde::JsonValue::String(self.design.clone()),
            ),
            (
                "shots_per_sec".to_owned(),
                serde::JsonValue::Number(self.shots_per_sec),
            ),
            (
                "batch".to_owned(),
                serde::JsonValue::Number(self.batch as f64),
            ),
            (
                "threads".to_owned(),
                serde::JsonValue::Number(self.threads as f64),
            ),
            (
                "git_rev".to_owned(),
                serde::JsonValue::String(self.git_rev.clone()),
            ),
        ];
        if let Some(simd) = &self.simd {
            fields.push(("simd".to_owned(), serde::JsonValue::String(simd.clone())));
        }
        serde::JsonValue::Object(fields)
    }

    fn from_json(v: &serde::JsonValue) -> Result<Self, String> {
        let get_str = |key: &str| match v.get(key) {
            Some(serde::JsonValue::String(s)) => Ok(s.clone()),
            _ => Err(format!("bench row missing string field {key:?}")),
        };
        let get_num = |key: &str| match v.get(key) {
            Some(serde::JsonValue::Number(n)) => Ok(*n),
            _ => Err(format!("bench row missing numeric field {key:?}")),
        };
        Ok(Self {
            design: get_str("design")?,
            shots_per_sec: get_num("shots_per_sec")?,
            batch: get_num("batch")? as usize,
            threads: get_num("threads")? as usize,
            git_rev: get_str("git_rev")?,
            simd: v.get("simd").map(|_| get_str("simd")).transpose()?,
        })
    }
}

/// The instruction set [`mlr_core::plan::dot_tile`] scores with on this
/// host — what a bench row's `simd` records.
pub fn simd_tier() -> &'static str {
    mlr_core::plan::tile_tier().name()
}

/// The short git revision of the working tree at call time, with a
/// `-dirty` suffix when tracked files are modified (the `git describe
/// --dirty` convention) — so a bench row measured on an edited tree can
/// never masquerade as the clean commit. `"unknown"` when git or the
/// repository is unavailable.
pub fn git_rev() -> String {
    let Some(rev) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_owned();
    };
    // `diff-index --quiet` exits non-zero when tracked files differ from
    // HEAD (untracked files don't count, matching `git describe --dirty`).
    let dirty = std::process::Command::new("git")
        .args(["diff-index", "--quiet", "HEAD", "--"])
        .status()
        .map(|s| !s.success())
        .unwrap_or(false);
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// Reads a `BENCH_*.json` trajectory file: a JSON array of rows.
///
/// A missing file reads as an empty trajectory.
///
/// # Errors
///
/// Returns a description when the file exists but is not a well-formed
/// array of bench rows — the malformed-JSON gate of the CI smoke step.
pub fn read_bench_rows(path: &std::path::Path) -> Result<Vec<BenchRow>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let value: serde::JsonValue = serde_json::from_str(&text)
        .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    let serde::JsonValue::Array(items) = value else {
        return Err(format!("{} is not a JSON array", path.display()));
    };
    items.iter().map(BenchRow::from_json).collect()
}

/// Appends `rows` to a `BENCH_*.json` trajectory file, preserving any
/// rows already recorded (the file stays one flat JSON array).
///
/// # Errors
///
/// Returns a description when the existing file is malformed or the write
/// fails — an existing trajectory is never silently clobbered.
pub fn append_bench_rows(path: &std::path::Path, rows: &[BenchRow]) -> Result<(), String> {
    let mut all = read_bench_rows(path)?;
    all.extend(rows.iter().cloned());
    let value = serde::JsonValue::Array(all.iter().map(BenchRow::to_json).collect());
    let mut text =
        serde_json::to_string(&value).map_err(|e| format!("cannot encode bench rows: {e}"))?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// An aligned table: a `== title ==` line after a blank one, the header
/// row, then one row per entry, every cell right-aligned to its column.
pub fn format_table<S: AsRef<str>>(title: &str, header: &[S], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.iter().map(|h| h.as_ref().to_owned()).collect();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!("\n== {title} ==\n");
    for row in std::iter::once(&header).chain(rows) {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&format!("  {}\n", cells.join("  ")));
    }
    out
}

/// Prints [`format_table`] to stdout.
pub fn print_table<S: AsRef<str>>(title: &str, header: &[S], rows: &[Vec<String>]) {
    print!("{}", format_table(title, header, rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(simd: Option<&str>) -> BenchRow {
        BenchRow {
            design: "OURS".to_owned(),
            shots_per_sec: 1.5e5,
            batch: 600,
            threads: 1,
            git_rev: "abc1234".to_owned(),
            simd: simd.map(str::to_owned),
        }
    }

    #[test]
    fn bench_rows_round_trip_with_and_without_the_simd_tier() {
        for simd in [Some("avx512"), None] {
            let json = row(simd).to_json();
            assert_eq!(json.get("simd").is_some(), simd.is_some());
            assert_eq!(BenchRow::from_json(&json).unwrap(), row(simd));
        }
    }

    #[test]
    fn rows_recorded_before_the_simd_tier_still_read() {
        let parse = |text: &str| BenchRow::from_json(&serde_json::from_str(text).unwrap());
        let old = r#"{"design":"OURS","shots_per_sec":117000,"batch":9720,"threads":1,"git_rev":"a902b8f"}"#;
        assert_eq!(parse(old).unwrap().simd, None);
        let mistyped =
            r#"{"design":"OURS","shots_per_sec":1,"batch":1,"threads":1,"git_rev":"x","simd":2}"#;
        assert!(parse(mistyped).is_err());
    }
}
