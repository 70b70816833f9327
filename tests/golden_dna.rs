//! Golden-DNA corpus: the exact Δ DNA of every workload-suite function
//! and every VDC catalog entry, serialised via `Dna::to_text` and checked
//! into `tests/golden/`. Any change to the frontend, the MIR builder, the
//! pass pipeline, or the Δ extractor that perturbs even one sub-chain
//! fails these tests with a readable line diff.
//!
//! Extraction runs through `jitbull::extract_dna` — the normative
//! Algorithm 1 reference path — so the corpus *is* the reference oracle's
//! output and passes unchanged under `ExtractorMode::Reference`; the
//! incremental extractor is held to the same output by
//! `tests/extract_differential.rs`.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_dna
//! ```
//!
//! and review the diff like any other source change.

use std::fmt::Write as _;
use std::path::PathBuf;

use jitbull::Dna;
use jitbull_jit::VulnConfig;
use jitbull_vdc::{all_vdcs, extract_dna, extract_program_dna};

/// One golden file: a stem under `tests/golden/` and the named DNAs it
/// locks down, in extraction order.
struct GoldenFile {
    stem: String,
    entries: Vec<(String, Dna)>,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Every function of every workload in the suite (micro-benchmarks,
/// Octane analogues, and the pool serving mix), extracted on a fully
/// patched engine — the DNA a clean compile produces.
fn workload_corpus() -> Vec<GoldenFile> {
    let mut workloads = jitbull_workloads::all_workloads();
    workloads.extend(jitbull_workloads::serving_mix());
    workloads
        .iter()
        .map(|w| GoldenFile {
            stem: format!("workload_{}", w.name.to_lowercase()),
            entries: extract_program_dna(&w.source, &VulnConfig::none())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name)),
        })
        .collect()
}

/// Every VDC catalog entry's trigger functions, extracted on an engine
/// vulnerable to that VDC's own CVE — exactly the DNA `build_database`
/// installs during the vulnerability window.
fn vdc_corpus() -> Vec<GoldenFile> {
    all_vdcs()
        .iter()
        .map(|v| GoldenFile {
            stem: format!("vdc_{}", v.name),
            entries: extract_dna(v, &VulnConfig::with([v.cve]))
                .unwrap_or_else(|e| panic!("{}: {e}", v.name)),
        })
        .collect()
}

fn render(file: &GoldenFile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden DNA corpus — {} (regenerate: UPDATE_GOLDEN=1 cargo test --test golden_dna)",
        file.stem
    );
    for (name, dna) in &file.entries {
        let _ = writeln!(out, "# function: {name}");
        out.push_str(&dna.to_text());
    }
    out
}

/// A readable line diff: every differing line with its number, plus
/// lines present on only one side.
fn line_diff(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..e.len().max(a.len()) {
        match (e.get(i), a.get(i)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => {
                let _ = writeln!(
                    out,
                    "  line {}: golden `{}` vs extracted `{}`",
                    i + 1,
                    x.copied().unwrap_or("<missing>"),
                    y.copied().unwrap_or("<missing>")
                );
            }
        }
    }
    out
}

fn check_corpus(files: &[GoldenFile]) {
    let dir = golden_dir();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        for f in files {
            std::fs::write(dir.join(format!("{}.dna", f.stem)), render(f))
                .unwrap_or_else(|e| panic!("write {}: {e}", f.stem));
        }
        return;
    }
    let mut failures = String::new();
    for f in files {
        let path = dir.join(format!("{}.dna", f.stem));
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden file {} — regenerate with UPDATE_GOLDEN=1 cargo test --test golden_dna",
                path.display()
            )
        });
        let actual = render(f);
        if golden != actual {
            let _ = writeln!(
                failures,
                "{}.dna diverged from the extracted DNA:\n{}",
                f.stem,
                line_diff(&golden, &actual)
            );
        }
    }
    assert!(
        failures.is_empty(),
        "golden DNA mismatch (intentional change? regenerate with UPDATE_GOLDEN=1):\n{failures}"
    );
}

#[test]
fn workload_suite_dna_matches_golden_corpus() {
    check_corpus(&workload_corpus());
}

#[test]
fn vdc_catalog_dna_matches_golden_corpus() {
    check_corpus(&vdc_corpus());
}

/// `Dna::from_text(Dna::to_text(d))` is the identity for every corpus
/// entry — including trivial DNAs (whose text is empty) and DNAs with
/// empty slots interleaved between populated ones.
#[test]
fn golden_corpus_round_trips_through_text() {
    let mut checked = 0;
    let mut trivial = 0;
    for file in workload_corpus().into_iter().chain(vdc_corpus()) {
        for (name, dna) in &file.entries {
            let text = dna.to_text();
            let parsed =
                Dna::from_text(&text).unwrap_or_else(|e| panic!("{}/{name}: {e}", file.stem));
            assert_eq!(parsed, *dna, "{}/{name} fails to round-trip", file.stem);
            if dna.is_trivial() {
                trivial += 1;
                assert!(text.is_empty(), "trivial DNA must serialise to nothing");
            }
            checked += 1;
        }
    }
    assert!(checked > 20, "corpus unexpectedly small: {checked}");
    assert!(trivial > 0, "corpus should include trivial-DNA edge cases");
}

/// The comment framing (`# function: …` headers) must be transparent to
/// the parser: parsing a whole golden *file* yields the union of its
/// entries' deltas.
#[test]
fn golden_file_comments_are_transparent_to_the_parser() {
    let file = vdc_corpus().into_iter().next().expect("catalog non-empty");
    let merged = Dna::from_text(&render(&file)).expect("golden file parses");
    let mut expected = Dna::default();
    for (_, dna) in &file.entries {
        for (slot, d) in dna.deltas.iter().enumerate() {
            expected.deltas[slot]
                .removed
                .extend(d.removed.iter().cloned());
            expected.deltas[slot].added.extend(d.added.iter().cloned());
        }
    }
    assert_eq!(merged, expected);
}
