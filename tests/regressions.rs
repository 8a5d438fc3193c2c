//! Replay every committed proptest regression entry.
//!
//! The vendored `proptest` stub is deterministic and has **no failure
//! persistence**: it neither reads nor writes `*.proptest-regressions`
//! files, so the entries committed under `tests/` would silently stop
//! being exercised. This test scans `tests/` and every `crates/*/tests/`
//! for `*.proptest-regressions` files, parses the `# shrinks to k = v,
//! ...` comment of every `cc` line, and dispatches it — by its exact
//! parameter signature — to a hand-wired replay of the property body it
//! came from.
//! An entry with an unrecognized signature fails the test, forcing a
//! replay to be written alongside any newly committed seed.
//!
//! `scripts/check.sh regressions` additionally fails on *uncommitted*
//! regression files, so a failure found locally must either be fixed or
//! land here with its seed.

use dpq::core::workload::WorkloadSpec;
use dpq::core::OpRecord;
use dpq::semantics::{check_heap_properties, check_local_consistency, replay, ReplayMode};
use dpq::sim::{FaultPlan, Run, TraceEvent, VecTracer};
use dpq_trace::export::write_jsonl;

/// One parsed `cc` line: the hash (documentation only) and the shrunk
/// parameter assignment, in file order.
#[derive(Debug)]
struct Entry {
    file: String,
    params: Vec<(String, String)>,
}

impl Entry {
    fn keys(&self) -> Vec<&str> {
        self.params.iter().map(|(k, _)| k.as_str()).collect()
    }

    fn get(&self, key: &str) -> &str {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("{}: missing param {key:?}", self.file))
    }

    fn usize(&self, key: &str) -> usize {
        self.get(key)
            .parse()
            .unwrap_or_else(|e| panic!("{}: {key}: {e}", self.file))
    }

    fn u64(&self, key: &str) -> u64 {
        self.get(key)
            .parse()
            .unwrap_or_else(|e| panic!("{}: {key}: {e}", self.file))
    }

    fn f64(&self, key: &str) -> f64 {
        self.get(key)
            .parse()
            .unwrap_or_else(|e| panic!("{}: {key}: {e}", self.file))
    }
}

/// Every committed regression file, discovered by scanning rather than by
/// name: the workspace root's `tests/` plus each crate's `tests/`. A seed
/// file committed anywhere a proptest suite lives is therefore picked up
/// without anyone remembering to list it here.
fn regression_files() -> Vec<std::path::PathBuf> {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let mut scan = |dir: std::path::PathBuf| {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            return;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "proptest-regressions") {
                files.push(p);
            }
        }
    };
    scan(root.join("tests"));
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for entry in crates.flatten() {
            scan(entry.path().join("tests"));
        }
    }
    files.sort();
    files
}

/// Parse the `cc <hash> # shrinks to k = v, ...` lines of one file.
fn parse(path: &std::path::Path) -> Vec<Entry> {
    let file = path
        .file_name()
        .and_then(|n| n.to_str())
        .expect("regression file name")
        .to_string();
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut entries = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("cc ") else {
            continue;
        };
        let (_hash, comment) = rest
            .split_once("# shrinks to ")
            .unwrap_or_else(|| panic!("{file}: cc line without a shrink comment: {line:?}"));
        let params = comment
            .split(", ")
            .map(|kv| {
                let (k, v) = kv
                    .split_once(" = ")
                    .unwrap_or_else(|| panic!("{file}: malformed assignment {kv:?}"));
                (k.trim().to_string(), v.trim().to_string())
            })
            .collect();
        entries.push(Entry {
            file: file.clone(),
            params,
        });
    }
    entries
}

// ---------------------------------------------------------------------------
// Replays — each reproduces the body of the property its entry came from.
// ---------------------------------------------------------------------------

/// `property.rs::skeap_is_always_sequentially_consistent`, recorded before
/// the property gained its `n_prios` parameter — replayed across the full
/// historical range so the original failing configuration is covered.
fn replay_skeap_sequential_consistency(e: &Entry) {
    let (n, ops) = (e.usize("n"), e.usize("ops"));
    let (insert_ratio, seed) = (e.f64("insert_ratio"), e.u64("seed"));
    for n_prios in 1u64..=4 {
        let spec = WorkloadSpec {
            n,
            ops_per_node: ops,
            insert_ratio,
            n_prios,
            seed,
        };
        let run = skeap::cluster::run(&spec, n_prios as usize, Run::sync(400_000));
        assert!(run.completed, "n_prios={n_prios}: stalled");
        replay(&run.history, ReplayMode::Fifo)
            .unwrap_or_else(|err| panic!("n_prios={n_prios}: witness replay: {err:?}"));
        check_local_consistency(&run.history)
            .unwrap_or_else(|err| panic!("n_prios={n_prios}: local order: {err:?}"));
        check_heap_properties(&run.history)
            .unwrap_or_else(|err| panic!("n_prios={n_prios}: heap props: {err:?}"));
    }
}

/// `faults.rs::null_fault_plan_is_observationally_invisible_skeap`: a plan
/// that injects nothing must leave records, metrics, round count, latencies
/// and the JSONL trace bytes untouched.
fn replay_null_plan_invisibility(e: &Entry) {
    let spec = WorkloadSpec::balanced(e.usize("n"), e.usize("ops"), 3, e.u64("seed"));
    let null = FaultPlan::uniform(e.u64("nseed"), 0.0, 0.0).with_delay(0.9, 0);
    assert!(null.is_null());

    // Both sides ride the reliable transport, as the property does.
    let run_with = |plan: FaultPlan| {
        let run = Run::sync(400_000).faulty(plan, 8).tracer(VecTracer::new());
        let out = skeap::cluster::run(&spec, 3, run);
        assert!(out.completed);
        out
    };
    let (base, run) = (run_with(FaultPlan::none()), run_with(null));

    let recs: Vec<OpRecord> = run.history.records().copied().collect();
    let base_recs: Vec<OpRecord> = base.history.records().copied().collect();
    assert_eq!(recs, base_recs, "null plan changed the history");
    assert_eq!(run.metrics, base.metrics, "null plan changed metrics");
    assert_eq!(run.time, base.time, "null plan changed round count");
    assert_eq!(
        run.latency_hist, base.latency_hist,
        "null plan changed latencies"
    );
    assert_eq!(
        trace_bytes(&run.tracer.into_events()),
        trace_bytes(&base.tracer.into_events()),
        "null plan changed the trace"
    );
}

/// `faults.rs::duplicate_delivery_is_idempotent_skeap`: a dup-only plan
/// yields the same history records and residual elements as the clean run.
fn replay_duplicate_idempotence(e: &Entry) {
    let spec = WorkloadSpec::balanced(e.usize("n"), e.usize("ops"), 3, e.u64("seed"));
    let clean = skeap::cluster::run(&spec, 3, Run::sync(400_000).faulty(FaultPlan::none(), 16));
    let dup_run = skeap::cluster::run(
        &spec,
        3,
        Run::sync(400_000).faulty(FaultPlan::uniform(e.u64("fseed"), 0.0, e.f64("dup")), 16),
    );
    assert!(clean.completed && dup_run.completed);
    let a: Vec<OpRecord> = clean.history.records().copied().collect();
    let b: Vec<OpRecord> = dup_run.history.records().copied().collect();
    assert_eq!(a, b, "duplicates changed the history");
    assert_eq!(
        clean.residual, dup_run.residual,
        "duplicates changed the residual heap"
    );
}

fn trace_bytes(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_jsonl(events, &mut buf).expect("in-memory write");
    buf
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Route an entry to its replay by parameter signature. Unknown signatures
/// are a hard failure: a new committed seed needs a replay written here.
fn dispatch(e: &Entry) {
    match (e.file.as_str(), e.keys().as_slice()) {
        ("property.proptest-regressions", ["n", "ops", "insert_ratio", "seed"]) => {
            replay_skeap_sequential_consistency(e);
        }
        ("faults.proptest-regressions", ["n", "ops", "seed", "nseed"]) => {
            replay_null_plan_invisibility(e);
        }
        ("faults.proptest-regressions", ["n", "ops", "seed", "dup", "fseed"]) => {
            replay_duplicate_idempotence(e);
        }
        (file, keys) => panic!(
            "{file}: regression entry with unrecognized signature {keys:?} — \
             write a replay for it in tests/regressions.rs"
        ),
    }
}

#[test]
fn every_committed_regression_entry_replays() {
    let files = regression_files();
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    // The scan must at least find the two files known to be committed —
    // a rename or move that dropped them from discovery would otherwise
    // pass by replaying nothing.
    for known in [
        "faults.proptest-regressions",
        "property.proptest-regressions",
    ] {
        assert!(
            names.iter().any(|n| n == known),
            "regression scan lost {known}; found {names:?}"
        );
    }
    let entries: Vec<Entry> = files.iter().flat_map(|p| parse(p)).collect();
    // The committed corpus as of this writing; grows with new seeds. The
    // count is asserted so an accidentally truncated file cannot pass by
    // replaying nothing.
    assert!(
        entries.len() >= 3,
        "expected at least the 3 committed regression entries, found {}",
        entries.len()
    );
    for e in &entries {
        dispatch(e);
    }
}
