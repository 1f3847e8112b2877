//! Smoke-size runs of every workload, plain and traced: each completes
//! with every output check passing, and the traced ledger accounts for the
//! traced wall time.

use std::path::PathBuf;

use ivmf_perfbench::harness::{Outcome, RunConfig, Scale};
use ivmf_perfbench::probe::{fma_ceiling, triad_ceiling};
use ivmf_perfbench::report::{end_to_end, per_layer, Metric};
use ivmf_perfbench::workloads;

fn run(name: &str, trace: bool) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{name}-{}", u8::from(trace)));
    std::fs::create_dir_all(&work_dir).unwrap();
    let cfg = RunConfig {
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::smoke(),
        work_dir: work_dir.clone(),
    };
    let w = workloads::find(name).expect("known workload");
    let out = (w.run)(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    std::fs::remove_dir_all(&work_dir).ok();
    assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
    assert!(!out.op_ms.is_empty(), "{name}: no op completed");
    assert!(out.digests_compared > 0, "{name}: no op repeated an input");
    out
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn plain(name: &str) {
    let out = run(name, false);
    let m = end_to_end(&out, 1.0);
    for x in &m {
        assert!(x.value.is_finite() && x.value > 0.0, "{name}: {x:?}");
    }
    assert!(value(&m, "accuracy_hmean") <= 1.0);
}

fn traced(name: &str) -> Vec<Metric> {
    let out = run(name, true);
    let t = out.traced.as_ref().expect("traced run keeps its ledger");
    let coverage = t.ledger.coverage();
    assert!(
        (0.95..=1.05).contains(&coverage),
        "{name}: ledger covers {coverage} of the traced wall"
    );
    let scale = Scale::smoke();
    let fma = fma_ceiling(scale.fma_iters, 1);
    let triad = triad_ceiling(scale.triad_bytes.unwrap(), 2);
    let m = per_layer(t, &fma, &triad);
    for x in &m {
        assert!(x.value.is_finite() && x.value >= 0.0, "{name}: {x:?}");
    }
    assert!(value(&m, "ledger.top_layer_ms") > 0.0);
    m
}

#[test]
fn dense_roster_smoke() {
    plain("dense_roster");
    let m = traced("dense_roster");
    assert_eq!(value(&m, "data.shard_passes"), 0.0);
    assert!(value(&m, "stage.BoundSvd_ms") > 0.0);
}

#[test]
fn ooc_csr_smoke() {
    plain("ooc_csr");
    let m = traced("ooc_csr");
    // One content-hash pass plus one per bound product of the Gram, the
    // left recovery, the aligned solve and the right tightening.
    assert_eq!(value(&m, "data.shard_passes"), 8.0);
    assert!(value(&m, "data.decode_ms") > 0.0);
}

#[test]
fn churn_restart_smoke() {
    plain("churn_restart");
    let m = traced("churn_restart");
    assert!(value(&m, "core.append_ms") > 0.0);
    assert!(value(&m, "core.restore_ms") > 0.0);
    assert!(value(&m, "core.snapshot_mib") > 0.0);
}
