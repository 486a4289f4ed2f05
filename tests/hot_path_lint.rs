//! Source lint for the columnar hot path: no per-tuple `Mutex`/`RwLock`.
//!
//! The transport refactor's contract is that locks on the
//! monitor→queue→executor fast lane are taken at most once per *batch*
//! (or only on cold paths: interning, registration, scrape). Rather than
//! trusting review to keep it that way, this test greps the hot-path
//! sources: every `.lock()` / `.read()` / `.write()` call must carry a
//! `per-batch` or `cold path` justification on the same line or the
//! line directly above it. A new unannotated lock on these files fails
//! the build until its cost class is declared — and a reviewer can grep
//! for `per-batch lock` to audit every claim.
//!
//! A second check keeps rows out of the monitor: parsers emit columns
//! and the lane seals column batches, so outside its `#[cfg(test)]`
//! modules no file under `crates/monitor/src` may name the row types.
//!
//! A third keeps the control plane single: one mailbox loop drives
//! every frontend, `Orchestrator::registry` is the only map of running
//! queries, and the second frontend type stays deleted.
//!
//! A fourth keeps store reads off the segment walk: they go through the
//! frame directory, so `FrameIter::new(` may appear in the store's
//! non-test code only where a whole segment is the job, and says why.
//!
//! A fifth keeps `crates/bench` the paper's experiment index and
//! nothing else: every binary the docs and CI name exists, every
//! binary is documented, and none writes a file or times with an
//! external harness — wall-clock verdicts belong to `e2ebench`.
//!
//! A sixth keeps row *shape* work off the per-row path: in the row
//! converter, the executors and the keyed bolts, formatting a value,
//! cloning an edge list and resolving a field name each carry the same
//! `per-batch` / `cold path` justification a lock does.
//!
//! A seventh keeps the sketch processors' names and defaults in the
//! catalog alone: the control plane, the monitor and `PreAgg` name no
//! sketch processor (they are handed a `PreAggSpec`), and neither the
//! orchestrator's shadow default table nor a per-kind bolt comes back.

use std::fs;
use std::path::Path;

/// Files on the tuple fast lane, relative to the workspace root. Most
/// are lock-free by construction (rings, columns, codec); the queue and
/// schema registry are allowed locks only with a declared cost class.
const HOT_PATH_FILES: &[&str] = &[
    "crates/data/src/codec.rs",
    "crates/data/src/columns.rs",
    "crates/data/src/ring.rs",
    "crates/data/src/schema.rs",
    "crates/data/src/transport.rs",
    "crates/data/src/tuple.rs",
    "crates/monitor/src/lane.rs",
    "crates/monitor/src/pipeline.rs",
    "crates/queue/src/cluster.rs",
    "crates/queue/src/writer.rs",
    "crates/stream/src/bolt.rs",
    "crates/stream/src/inline.rs",
    "crates/stream/src/sharded.rs",
    "crates/stream/src/spout.rs",
];

const LOCK_CALLS: &[&str] = &[".lock()", ".read()", ".write()"];
const JUSTIFICATIONS: &[&str] = &["per-batch", "cold path"];

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("///") || t.starts_with("//!")
}

/// `src` minus its trailing `#[cfg(test)]` modules.
fn non_test_code(src: &str) -> &str {
    src.split("#[cfg(test)]").next().unwrap_or("")
}

/// Greps `src` (file `rel`) for `calls` outside comments; each hit
/// needs a justification on its line or the line above. Returns how many
/// hits were justified; the others land in `violations`.
fn unjustified(rel: &str, src: &str, calls: &[&str], violations: &mut Vec<String>) -> usize {
    let lines: Vec<&str> = src.lines().collect();
    let mut annotated = 0usize;
    for (i, line) in lines.iter().enumerate() {
        if is_comment(line) || !calls.iter().any(|c| line.contains(c)) {
            continue;
        }
        let prev = if i > 0 { lines[i - 1] } else { "" };
        if JUSTIFICATIONS
            .iter()
            .any(|j| line.contains(j) || prev.contains(j))
        {
            annotated += 1;
        } else {
            violations.push(format!("{rel}:{}: {}", i + 1, line.trim()));
        }
    }
    annotated
}

fn read(root: &Path, rel: &str) -> String {
    fs::read_to_string(root.join(rel))
        .unwrap_or_else(|e| panic!("hot-path file {rel} must exist: {e}"))
}

#[test]
fn hot_path_locks_are_per_batch_or_cold_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let mut annotated = 0usize;
    for rel in HOT_PATH_FILES {
        annotated += unjustified(rel, &read(root, rel), LOCK_CALLS, &mut violations);
    }
    assert!(
        violations.is_empty(),
        "unjustified lock on the hot path — annotate `// per-batch lock` \
         or `// cold path` (or move the lock off the fast lane):\n{}",
        violations.join("\n")
    );
    // Guard against the lint going vacuous if files move: the queue and
    // schema registry are known to hold annotated locks today.
    assert!(
        annotated >= 10,
        "expected the known annotated lock sites, found {annotated} — \
         did the hot-path file list go stale?"
    );
}

/// Where rows are rebuilt, routed and folded per key: anything here
/// that depends only on a row's shape belongs outside the row loop.
const ROW_LOOP_FILES: &[&str] = &[
    "crates/data/src/columns.rs",
    "crates/stream/src/bolt.rs",
    "crates/stream/src/bolts/count.rs",
    "crates/stream/src/bolts/key.rs",
    "crates/stream/src/bolts/rank.rs",
    "crates/stream/src/inline.rs",
    "crates/stream/src/sharded.rs",
];

/// Per-row costs that path has carried unnoticed: a value formatted into
/// a fresh `String`, an edge list (with its field-name `Vec<String>`)
/// cloned per emission, a schema lock per field name.
const SHAPE_CALLS: &[&str] = &[
    "to_string()",
    "ToString::to_string",
    "edges.clone()",
    ".name()",
];

#[test]
fn row_shape_work_is_per_batch_or_cold_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let mut annotated = 0usize;
    for rel in ROW_LOOP_FILES {
        let src = read(root, rel);
        annotated += unjustified(rel, non_test_code(&src), SHAPE_CALLS, &mut violations);
    }
    assert!(
        violations.is_empty(),
        "per-row shape work on the hot path — hoist it to once per batch \
         (or per layout) and annotate `// per-batch`, or `// cold path` if \
         the common row never reaches it:\n{}",
        violations.join("\n")
    );
    // Vacuity guard: `to_batch`, `wire_size` and `encode` resolve names
    // per batch and `key_str` formats non-string keys today.
    assert!(
        annotated >= 4,
        "expected the known annotated sites, found {annotated} — did the \
         row-loop file list go stale?"
    );
}

const ROW_TYPES: &[&str] = &["DataTuple", "TupleBatch"];

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn monitor_sources_name_no_row_types_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/monitor/src");
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    assert!(
        files.len() >= 10,
        "expected the monitor's sources, found {} — did the crate move?",
        files.len()
    );
    let mut violations = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).expect("readable source");
        // Test modules sit at the end of each file and may read batches
        // back as rows to state their expectations.
        for (i, line) in non_test_code(&src).lines().enumerate() {
            if !is_comment(line) && ROW_TYPES.iter().any(|t| line.contains(t)) {
                violations.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "row types in monitor code — parsers and the lane emit columns only:\n{}",
        violations.join("\n")
    );
}

#[test]
fn control_plane_has_one_driver_loop_and_no_shadow_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut core = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut core);
    assert!(
        core.len() >= 8,
        "expected the core crate's sources, found {} — did the crate move?",
        core.len()
    );
    let (mut loops, mut shadows) = (Vec::new(), Vec::new());
    for path in &core {
        let src = fs::read_to_string(path).expect("readable source");
        for (i, line) in non_test_code(&src).lines().enumerate() {
            let at = || format!("{}:{}: {}", path.display(), i + 1, line.trim());
            if line.contains("Ok(Command::Submit") {
                loops.push(at());
            }
            if line.contains("HashMap<u64, QueryHandle>") {
                shadows.push(at());
            }
        }
    }
    assert_eq!(
        loops.len(),
        1,
        "exactly one mailbox loop may apply frontend commands:\n{}",
        loops.join("\n")
    );
    assert!(
        shadows.is_empty(),
        "a handle map beside `Orchestrator::registry` goes stale on eviction \
         — ask the orchestrator (`handle_for`, `running_queries`, `tick`):\n{}",
        shadows.join("\n")
    );

    // The deleted twin of `QueryFrontend` must not come back, tests
    // and examples included (spelled in halves so this file passes).
    let deleted = concat!("Cluster", "Frontend");
    let mut everywhere = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut everywhere);
    }
    let revived: Vec<String> = everywhere
        .iter()
        .filter(|p| fs::read_to_string(p).is_ok_and(|src| src.contains(deleted)))
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        revived.is_empty(),
        "{deleted} is back — serve a cluster through `QueryFrontend::spawn_cluster`:\n{}",
        revived.join("\n")
    );
}

#[test]
fn sketch_processors_are_named_by_the_catalog_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names = ["\"heavy-hitters\"", "\"distinct\"", "\"quantile\""];
    let mut handed_a_spec = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut handed_a_spec);
    rust_files(&root.join("crates/monitor/src"), &mut handed_a_spec);
    handed_a_spec.push(root.join("crates/sketch/src/preagg.rs"));
    assert!(
        handed_a_spec.len() >= 20,
        "expected the core and monitor sources, found {} — did a crate move?",
        handed_a_spec.len()
    );
    let mut violations = Vec::new();
    for path in &handed_a_spec {
        let src = fs::read_to_string(path).expect("readable source");
        for (i, line) in non_test_code(&src).lines().enumerate() {
            if !is_comment(line) && names.iter().any(|n| line.contains(n)) {
                violations.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "a sketch processor named outside the catalog — take the \
         `PreAggSpec` from `topologies::sketch_spec` instead of re-parsing \
         the processor's arguments:\n{}",
        violations.join("\n")
    );

    // The shadow default table and the three per-kind bolts stay
    // deleted, tests included (spelled in halves so this file passes).
    let deleted = [
        concat!("fn preagg", "_for"),
        concat!("struct HeavyHitters", "Bolt"),
        concat!("struct Distinct", "Bolt"),
        concat!("struct Quantile", "Bolt"),
    ];
    let mut crates = Vec::new();
    rust_files(&root.join("crates"), &mut crates);
    let revived: Vec<String> = crates
        .iter()
        .filter(|p| fs::read_to_string(p).is_ok_and(|src| deleted.iter().any(|d| src.contains(d))))
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        revived.is_empty(),
        "one `SketchBolt` over a `PreAggSpec`, one `sketch_spec` — not:\n{}",
        revived.join("\n")
    );
}

/// `(file, call sites)`: the only whole-segment walks the store makes —
/// `open_with`'s two recovery loops (segments, rollup log) and
/// `fold_segment`, which summarises every frame by definition.
const SEGMENT_WALKS: &[(&str, usize)] = &[("scan.rs", 1), ("store.rs", 2)];

#[test]
fn store_reads_never_walk_a_whole_segment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/store/src");
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    assert!(
        files.len() >= 8,
        "expected the store's sources, found {} — did the crate move?",
        files.len()
    );
    let mut violations = Vec::new();
    for path in &files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let allowed = SEGMENT_WALKS
            .iter()
            .find(|(f, _)| *f == name)
            .map_or(0, |&(_, n)| n);
        let src = fs::read_to_string(path).expect("readable source");
        let lines: Vec<&str> = non_test_code(&src).lines().collect();
        let mut walks = 0usize;
        for (i, line) in lines.iter().enumerate() {
            if is_comment(line) || !line.contains("FrameIter::new(") {
                continue;
            }
            walks += 1;
            let prev = if i > 0 { lines[i - 1] } else { "" };
            if !line.contains("whole-segment walk:") && !prev.contains("whole-segment walk:") {
                violations.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
        if walks != allowed {
            violations.push(format!(
                "{}: {walks} segment walk(s), {allowed} allowed",
                path.display()
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "a store read path walks whole segments — read through the frame \
         directory (`scan_frames`), or annotate `// whole-segment walk: <why>` \
         and list the site in SEGMENT_WALKS:\n{}",
        violations.join("\n")
    );
}

/// Files that tell a reader or a CI runner which commands to run.
const COMMAND_DOCS: &[&str] = &[
    ".github/workflows/ci.yml",
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every name that follows `flag` in `text` (`--bin <name>` placeholders
/// yield nothing).
fn names_after<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    text.split(flag)
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

#[test]
fn bench_crate_is_the_experiment_index() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = root.join("crates/bench");
    let mut violations = Vec::new();

    // (a) No doc or CI step names a binary or example that is gone.
    for rel in COMMAND_DOCS {
        let text = fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("command doc {rel} must exist: {e}"));
        for (flag, dir) in [
            ("--bin ", "crates/bench/src/bin"),
            ("--example ", "examples"),
        ] {
            for name in names_after(&text, flag) {
                if !root.join(dir).join(format!("{name}.rs")).exists() {
                    violations.push(format!("{rel}: `{flag}{name}` has no {dir}/{name}.rs"));
                }
            }
        }
    }

    // (b) Every experiment binary has its section in EXPERIMENTS.md.
    let experiments = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut bins = Vec::new();
    rust_files(&bench.join("src/bin"), &mut bins);
    assert!(
        bins.len() >= 10,
        "expected the experiment binaries, found {} — did the crate move?",
        bins.len()
    );
    for bin in &bins {
        let name = bin.file_stem().and_then(|n| n.to_str()).unwrap_or("");
        if !experiments.contains(name) {
            violations.push(format!("{}: not named in EXPERIMENTS.md", bin.display()));
        }
    }

    // (c) A binary prints its table and nothing else: a committed
    // `results/` file is a redirect of a full run, never a side effect.
    let mut sources = vec![bench.join("Cargo.toml")];
    rust_files(&bench, &mut sources);
    for path in &sources {
        let src = fs::read_to_string(path).expect("readable source");
        for banned in ["fs::write", "criterion"] {
            if src.contains(banned) {
                violations.push(format!("{}: contains `{banned}`", path.display()));
            }
        }
    }

    // (d) No second timing harness beside the benchmark.
    if bench.join("benches").exists() {
        violations.push("crates/bench/benches exists".to_string());
    }

    assert!(
        violations.is_empty(),
        "crates/bench is the paper's experiment index — its binaries print, \
         the docs name only what exists, and timing that gates belongs to \
         `e2ebench` + BENCHMARK.json:\n{}",
        violations.join("\n")
    );
}
