//! `mlr serve-stats --json` run as its own process, so the fleet's
//! environment knobs can be set without touching other tests' state.

use std::process::Command;

#[test]
fn serve_stats_json_records_the_fleet_worker_count() {
    let bench = std::env::temp_dir().join(format!("mlr_workers_{}.json", std::process::id()));
    std::fs::remove_file(&bench).ok();
    // Three workers: neither the default pool size on a two-core host nor
    // the old hard-coded row value.
    let status = Command::new(env!("CARGO_BIN_EXE_mlr"))
        .args([
            "serve-stats",
            "--qubits",
            "2",
            "--samples",
            "80",
            "--models",
            "1",
            "--sessions",
            "2",
            "--shots",
            "16",
            "--seed",
            "11",
            "--json",
            "--bench-file",
        ])
        .arg(&bench)
        .env("MLR_FLEET_WORKERS", "3")
        .status()
        .expect("mlr runs");
    assert!(status.success(), "serve-stats exited with {status}");
    let rows = mlr_bench::read_bench_rows(&bench).expect("rows parse");
    std::fs::remove_file(&bench).ok();
    let designs: Vec<&str> = rows.iter().map(|r| r.design.as_str()).collect();
    assert_eq!(designs, ["FLEET", "FLEET-EQUIV"], "{designs:?}");
    assert!(
        rows.iter().all(|r| r.threads == 3),
        "rows must record the pool's worker count: {:?}",
        rows.iter().map(|r| r.threads).collect::<Vec<_>>()
    );
}
