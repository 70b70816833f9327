//! Differential lockdown of the incremental Δ extractor.
//!
//! `jitbull::extract_dna` / `jitbull::extract_delta` are the normative
//! Algorithm 1 implementation; `jitbull::IncrementalExtractor` (edge-diff
//! fast path, cached enumeration, interned run windows) must return
//! chain-for-chain identical DNA on every trace. These tests sweep seeded
//! random MIR snapshot pairs — including renumberings, no-op passes,
//! pathological high-fanout graphs that bind the chain caps, and
//! chained records sharing snapshots — the full VDC catalog, the workload
//! suite at engine level, and fail on the first divergence.

use std::sync::Arc;

use jitbull::{extract_delta, extract_dna, IncrementalExtractor};
use jitbull_mir::{MirSnapshot, PassRecord, PassTrace, SnapInstr};
use jitbull_prng::Rng;

const LABELS: &[&str] = &[
    "add",
    "mul",
    "sub",
    "constant:number",
    "parameter0",
    "parameter1",
    "loadelement",
    "storeelement",
    "boundscheck",
    "initializedlength",
    "unbox:array",
    "return",
    "phi",
    "guardshape",
];

const PASS_NAMES: &[&str] = &[
    "TypeSpecialization",
    "GVN",
    "LICM",
    "BoundsCheckElimination",
    "EliminateRedundantChecks",
    "FoldLinearArithmetic",
];

const SLOTS: usize = 16;

fn instr(rng: &mut Rng, id: u32, prior: &[u32]) -> SnapInstr {
    let n_ops = rng.gen_range(0..3usize);
    let operands = (0..n_ops)
        .map(|_| {
            if !prior.is_empty() && rng.gen_bool(0.85) {
                *rng.pick(prior)
            } else {
                // Dangling or forward reference: the extractor must
                // treat unknown ids exactly like the reference ("?").
                rng.gen_range(0..40u32)
            }
        })
        .collect();
    SnapInstr {
        id,
        label: Arc::from(*rng.pick(LABELS)),
        operands,
    }
}

fn random_snapshot(rng: &mut Rng, max_instrs: usize) -> MirSnapshot {
    let n = rng.gen_range(1..max_instrs.max(2));
    let mut ids: Vec<u32> = Vec::new();
    let mut instrs = Vec::new();
    let mut next = 0u32;
    for _ in 0..n {
        next += rng.gen_range(1..3u32); // occasional id gaps
        instrs.push(instr(rng, next, &ids));
        ids.push(next);
    }
    MirSnapshot { instrs }
}

/// A dense layered graph wide and deep enough that the reference
/// extractor's MAX_CHAINS / MAX_CHAIN_LEN caps bind — the regime where
/// enumeration *order* becomes observable and any ordering drift in the
/// incremental path would change the emitted set.
fn pathological_snapshot(rng: &mut Rng) -> MirSnapshot {
    let width = rng.gen_range(3..6usize);
    let depth = rng.gen_range(4..8usize);
    let mut instrs = Vec::new();
    for layer in 0..depth {
        for lane in 0..width {
            let id = (layer * width + lane) as u32;
            let operands = if layer == 0 {
                Vec::new()
            } else {
                ((layer - 1) * width..layer * width)
                    .map(|p| p as u32)
                    .collect()
            };
            instrs.push(SnapInstr {
                id,
                label: Arc::from(*rng.pick(LABELS)),
                operands,
            });
        }
    }
    MirSnapshot { instrs }
}

/// Derives `after` from `before` the way a pass would: a few removals,
/// insertions, rewires, relabels — or a pure renumbering / no-op, the
/// cases the incremental fast path must prove empty without enumerating.
fn mutate(rng: &mut Rng, before: &MirSnapshot) -> MirSnapshot {
    let mut after = before.clone();
    match rng.gen_range(0..10u32) {
        0 => {} // no-op pass: identical snapshot
        1 => {
            // Pure renumbering: same label structure, shifted ids.
            let shift = rng.gen_range(1..50u32);
            for i in &mut after.instrs {
                i.id += shift;
                for o in &mut i.operands {
                    *o += shift;
                }
            }
        }
        _ => {
            for _ in 0..rng.gen_range(1..4usize) {
                if after.instrs.is_empty() {
                    break;
                }
                match rng.gen_range(0..4u32) {
                    0 => {
                        let at = rng.gen_range(0..after.instrs.len());
                        after.instrs.remove(at);
                    }
                    1 => {
                        let prior: Vec<u32> = after.instrs.iter().map(|i| i.id).collect();
                        let id = prior.iter().max().unwrap_or(&0) + rng.gen_range(1..4u32);
                        let ins = instr(rng, id, &prior);
                        let at = rng.gen_range(0..after.instrs.len() + 1);
                        after.instrs.insert(at, ins);
                    }
                    2 => {
                        let at = rng.gen_range(0..after.instrs.len());
                        after.instrs[at].label = Arc::from(*rng.pick(LABELS));
                    }
                    _ => {
                        let at = rng.gen_range(0..after.instrs.len());
                        if !after.instrs[at].operands.is_empty() {
                            let o = rng.gen_range(0..after.instrs[at].operands.len());
                            after.instrs[at].operands[o] = rng.gen_range(0..40u32);
                        }
                    }
                }
            }
        }
    }
    after
}

/// Builds a trace of `n_records` passes. With probability ~0.7 each
/// record's `before` is the previous record's `after` (the shape a real
/// pipeline produces, exercising the enumeration-reuse path); otherwise
/// it is a fresh snapshot.
fn random_trace(rng: &mut Rng, n_records: usize, pathological: bool) -> PassTrace {
    let mut records = Vec::new();
    let mut current = if pathological {
        pathological_snapshot(rng)
    } else {
        random_snapshot(rng, 14)
    };
    for _ in 0..n_records {
        let before = if !records.is_empty() && rng.gen_bool(0.3) {
            if pathological {
                pathological_snapshot(rng)
            } else {
                random_snapshot(rng, 14)
            }
        } else {
            current.clone()
        };
        let after = mutate(rng, &before);
        records.push(PassRecord {
            slot: rng.gen_range(0..SLOTS),
            // Not auto-deref: the explicit `*` pins `pick`'s element
            // type to `&str` (clippy's suggestion fails inference).
            #[allow(clippy::explicit_auto_deref)]
            name: *rng.pick(PASS_NAMES),
            before: before.clone(),
            after: after.clone(),
        });
        current = after;
    }
    PassTrace {
        function: "f".into(),
        literals: Vec::new(),
        records,
    }
}

/// Runs seeded random traces through both extractors and asserts
/// chain-for-chain identical DNA (whole-trace) and identical per-pass
/// deltas (pairwise). One `IncrementalExtractor` persists across the
/// whole sweep so the interner, run-window cache, and enumeration cache
/// carry real cross-case state. Returns snapshot pairs checked.
fn sweep(seed: u64, traces: usize) -> usize {
    let mut rng = Rng::seed_from_u64(seed);
    let mut incremental = IncrementalExtractor::new();
    let mut pairs = 0;
    for case in 0..traces {
        let pathological = rng.gen_bool(0.05);
        let n_records = rng.gen_range(1..5usize);
        let trace = random_trace(&mut rng, n_records, pathological);
        pairs += trace.records.len();
        let expected = extract_dna(&trace, SLOTS);
        let (got, receipt) = incremental.extract_dna(&trace, SLOTS);
        assert_eq!(
            got, expected,
            "whole-trace divergence: seed={seed} case={case} pathological={pathological} receipt={receipt:?}"
        );
        for (i, r) in trace.records.iter().enumerate() {
            let expected = extract_delta(&r.before, &r.after);
            let got = incremental.extract_delta(&r.before, &r.after);
            assert_eq!(
                got, expected,
                "per-pass divergence: seed={seed} case={case} record={i}"
            );
        }
    }
    let stats = incremental.stats();
    assert!(
        stats.passes_skipped > 0 && stats.passes_enumerated > 0,
        "sweep never exercised both the fast path and the slow path: {stats:?}"
    );
    pairs
}

/// The headline differential: ≥10k seeded random snapshot pairs, zero
/// divergences between the incremental extractor and the Algorithm 1
/// oracle.
#[test]
fn random_sweep_finds_zero_divergences() {
    let pairs = sweep(0xE0_7C47, 4200);
    assert!(pairs >= 10_000, "only {pairs} snapshot pairs checked");
}

/// Large release-profile sweep, run by the CI `--ignored` job.
#[test]
#[ignore = "large sweep; run with --release -- --ignored"]
fn large_random_sweep_finds_zero_divergences() {
    let pairs = sweep(0x05EE_DE47, 21_000);
    assert!(pairs >= 50_000, "only {pairs} snapshot pairs checked");
}

/// Every VDC in the catalog: the trace a protected engine would take
/// (each VDC compiled on an engine carrying its own CVE) must extract
/// identically under both implementations.
#[test]
fn full_vdc_catalog_extracts_identically() {
    use jitbull_frontend::parse_program;
    use jitbull_jit::pipeline::{optimize, OptimizeOptions, N_SLOTS};
    use jitbull_jit::VulnConfig;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    let mut incremental = IncrementalExtractor::new();
    for v in jitbull_vdc::all_vdcs() {
        let program = parse_program(&v.source).unwrap();
        let module = compile_program(&program).unwrap();
        for name in &v.trigger_functions {
            let fid = module.function_id(name).unwrap();
            let mir = build_mir(&module, fid).unwrap();
            let result = optimize(
                mir,
                &VulnConfig::with([v.cve]),
                &OptimizeOptions {
                    trace: true,
                    ..Default::default()
                },
            );
            let expected = extract_dna(&result.trace, N_SLOTS);
            let (got, _) = incremental.extract_dna(&result.trace, N_SLOTS);
            assert_eq!(got, expected, "divergence: vdc={} fn={name}", v.name);
        }
    }
}

/// Engine level: the whole workload serving mix, run end-to-end under
/// each `ExtractorMode` against a full VDC database, must print the same
/// output and reach the same tier/verdict counts.
#[test]
fn engine_runs_agree_across_extractor_modes() {
    use jitbull::ExtractorMode;
    use jitbull_jit::engine::{Engine, EngineConfig};
    use jitbull_jit::{CveId, VulnConfig};

    let db = jitbull_vdc::build_database(&jitbull_vdc::all_vdcs()).unwrap();
    for w in jitbull_workloads::serving_mix() {
        let mut runs = Vec::new();
        for mode in [ExtractorMode::Reference, ExtractorMode::Incremental] {
            let config = EngineConfig {
                vulns: VulnConfig::with([CveId::Cve2019_17026]),
                extractor: mode,
                ..EngineConfig::fast_test()
            };
            let guard =
                jitbull::Guard::new(db.clone(), jitbull::CompareConfig { thr: 1, ratio: 0.5 });
            let mut engine = Engine::with_guard(config, guard);
            runs.push(engine.run_source_with(&w.source).unwrap());
        }
        let (a, b) = (&runs[0], &runs[1]);
        assert_eq!(a.outcome.printed, b.outcome.printed, "{}", w.name);
        assert_eq!(a.nr_jit, b.nr_jit, "{}", w.name);
        assert_eq!(a.nr_disjit, b.nr_disjit, "{}", w.name);
        assert_eq!(a.nr_nojit, b.nr_nojit, "{}", w.name);
        for (sa, sb) in a.stats.iter().zip(&b.stats) {
            assert_eq!(sa.matched, sb.matched, "{}", w.name);
        }
    }
}
