//! Differential lockdown of the incremental Δ extractor.
//!
//! `jitbull::extract_dna` / `jitbull::extract_delta` are the normative
//! Algorithm 1 implementation; `jitbull::IncrementalExtractor` (edge-diff
//! fast path, cached enumeration, interned run windows) must return
//! chain-for-chain identical DNA on every trace. These tests sweep seeded
//! random MIR snapshot traces — including renumberings, no-op passes,
//! pathological high-fanout graphs that bind the chain caps, instructions
//! with more operands than real MIR gives them, repeated ids whose
//! operand lists concatenate, sparse ids up to near `u32::MAX`, passes whose output is unrelated to their
//! input and passes that restore an earlier snapshot — the full VDC catalog, real
//! pipeline traces of seeded fuzzer programs under random disabled-slot
//! sets, the workload suite at engine level, and fail on the first
//! divergence.

use jitbull::{extract_delta, extract_dna, IncrementalExtractor};
use jitbull_mir::{Label, MirSnapshot, PassRecord, PassTrace, SlotSet};
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
    "typeguard:object",
];

fn label(rng: &mut Rng) -> Label {
    let name: &&str = rng.pick(LABELS);
    Label::from_name(name).expect("a mnemonic")
}

const PASS_NAMES: &[&str] = &[
    "TypeSpecialization",
    "GVN",
    "LICM",
    "BoundsCheckElimination",
    "EliminateRedundantChecks",
    "FoldLinearArithmetic",
];

/// Random traces draw their slots below `SLOTS`.
const SLOTS: usize = 16;

/// One instruction being generated: `(id, label, operands)`. Generators
/// edit lists of these and freeze them into a [`MirSnapshot`].
type Instr = (u32, Label, Vec<u32>);

fn freeze(instrs: &[Instr]) -> MirSnapshot {
    let mut snapshot = MirSnapshot::default();
    for (id, label, operands) in instrs {
        snapshot.push(*id, *label, operands);
    }
    snapshot
}

fn thaw(snapshot: &MirSnapshot) -> Vec<Instr> {
    let instrs = snapshot.iter();
    instrs
        .map(|i| (i.id, i.label, i.operands.to_vec()))
        .collect()
}

fn instr(rng: &mut Rng, id: u32, prior: &[u32]) -> Instr {
    // Mostly the 0–2 operands of real MIR, sometimes a call-sized list.
    let n_ops = if rng.gen_bool(0.1) {
        rng.gen_range(4..7usize)
    } else {
        rng.gen_range(0..3usize)
    };
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
    (id, label(rng), operands)
}

fn random_snapshot(rng: &mut Rng, max_instrs: usize) -> MirSnapshot {
    let n = rng.gen_range(1..max_instrs.max(2));
    let mut ids: Vec<u32> = Vec::new();
    let mut instrs = Vec::new();
    let mut next = 0u32;
    for _ in 0..n {
        // Sometimes an id repeats: its instructions' operand lists
        // concatenate in snapshot order and the last label wins.
        let id = if !ids.is_empty() && rng.gen_bool(0.08) {
            *rng.pick(&ids)
        } else {
            next += rng.gen_range(1..3u32); // occasional id gaps
            next
        };
        instrs.push(instr(rng, id, &ids));
        ids.push(id);
    }
    freeze(&instrs)
}

/// A dense layered graph wide and deep enough that the reference
/// extractor's MAX_CHAINS / MAX_CHAIN_LEN caps bind — the regime where
/// enumeration *order* becomes observable and any ordering drift in the
/// incremental path would change the emitted set. Some nodes list their
/// operands over two instructions sharing their id, so the order in
/// which repeated ids' operands concatenate is observable too.
fn pathological_snapshot(rng: &mut Rng) -> MirSnapshot {
    let width = rng.gen_range(3..6usize);
    let depth = rng.gen_range(4..8usize);
    let mut instrs = Vec::new();
    for layer in 0..depth {
        for lane in 0..width {
            let id = (layer * width + lane) as u32;
            let mut operands: Vec<u32> = if layer == 0 {
                Vec::new()
            } else {
                ((layer - 1) * width..layer * width)
                    .map(|p| p as u32)
                    .collect()
            };
            if operands.len() > 1 && rng.gen_bool(0.3) {
                let rest = operands.split_off(rng.gen_range(1..operands.len()));
                instrs.push((id, label(rng), rest));
            }
            instrs.push((id, label(rng), operands));
        }
    }
    freeze(&instrs)
}

/// Derives `after` from `before` the way a pass would: a few removals,
/// insertions, rewires, relabels — or a pure renumbering / no-op, the
/// cases the incremental fast path must prove empty without enumerating.
fn mutate(rng: &mut Rng, before: &MirSnapshot) -> MirSnapshot {
    let mut after = thaw(before);
    match rng.gen_range(0..10u32) {
        0 => {} // no-op pass: identical snapshot
        1 => {
            // Pure renumbering: same label structure, shifted ids.
            let shift = rng.gen_range(1..50u32);
            for (id, _, operands) in &mut after {
                *id += shift;
                for o in operands {
                    *o += shift;
                }
            }
        }
        _ => {
            for _ in 0..rng.gen_range(1..4usize) {
                if after.is_empty() {
                    break;
                }
                match rng.gen_range(0..4u32) {
                    0 => {
                        let at = rng.gen_range(0..after.len());
                        after.remove(at);
                    }
                    1 => {
                        let prior: Vec<u32> = after.iter().map(|i| i.0).collect();
                        let id = prior.iter().max().unwrap_or(&0) + rng.gen_range(1..4u32);
                        let ins = instr(rng, id, &prior);
                        let at = rng.gen_range(0..after.len() + 1);
                        after.insert(at, ins);
                    }
                    2 => {
                        let at = rng.gen_range(0..after.len());
                        after[at].1 = label(rng);
                    }
                    _ => {
                        let at = rng.gen_range(0..after.len());
                        let operands = &mut after[at].2;
                        if !operands.is_empty() {
                            let o = rng.gen_range(0..operands.len());
                            operands[o] = rng.gen_range(0..40u32);
                        }
                    }
                }
            }
        }
    }
    freeze(&after)
}

/// Builds a trace of `n_records` passes. With probability ~0.7 a pass
/// derives its `after` from the IR it starts from (the way a real pass
/// rewrites it, exercising the enumeration-reuse path); otherwise its
/// `after` is a fresh snapshot unrelated to its `before`, or — a pass
/// undoing an earlier one — a copy of an earlier snapshot of the trace.
fn random_trace(
    rng: &mut Rng,
    initial: MirSnapshot,
    n_records: usize,
    pathological: bool,
) -> PassTrace {
    let fresh = |rng: &mut Rng| {
        if pathological {
            pathological_snapshot(rng)
        } else {
            random_snapshot(rng, 14)
        }
    };
    let mut records: Vec<PassRecord> = Vec::new();
    for _ in 0..n_records {
        let before = records.last().map_or(&initial, |r| &r.after);
        let after = if rng.gen_bool(0.1) {
            let earlier = rng.gen_range(0..records.len() + 1);
            earlier
                .checked_sub(1)
                .map_or(&initial, |r| &records[r].after)
                .clone()
        } else if rng.gen_bool(0.3) {
            fresh(rng)
        } else {
            mutate(rng, before)
        };
        records.push(PassRecord {
            slot: rng.gen_range(0..SLOTS),
            // Not auto-deref: the explicit `*` pins `pick`'s element
            // type to `&str` (clippy's suggestion fails inference).
            #[allow(clippy::explicit_auto_deref)]
            name: *rng.pick(PASS_NAMES),
            after,
        });
    }
    PassTrace {
        function: "f".into(),
        initial,
        records,
    }
}

/// Applies `remap` to every id and operand of every snapshot of `trace`.
fn remap_trace(trace: &PassTrace, remap: impl Fn(u32) -> u32) -> PassTrace {
    let remap_snapshot = |snapshot: &MirSnapshot| {
        let mut instrs = thaw(snapshot);
        for (id, _, operands) in &mut instrs {
            *id = remap(*id);
            operands.iter_mut().for_each(|o| *o = remap(*o));
        }
        freeze(&instrs)
    };
    PassTrace {
        function: trace.function.clone(),
        initial: remap_snapshot(&trace.initial),
        records: trace
            .records
            .iter()
            .map(|r| PassRecord {
                after: remap_snapshot(&r.after),
                ..r.clone()
            })
            .collect(),
    }
}

/// The same trace over sparse, very large ids: every id spread apart by
/// a seeded gap of thousands and pushed up against `u32::MAX`, in the
/// same order, so the DNA cannot change. A table indexed by id alone
/// would need billions of slots here.
fn sparse_trace(rng: &mut Rng, trace: &PassTrace) -> PassTrace {
    let snapshots = std::iter::once(&trace.initial).chain(trace.records.iter().map(|r| &r.after));
    let top = snapshots
        .flat_map(|s| s.ids().iter().chain(s.all_operands()))
        .copied()
        .max()
        .unwrap_or(0);
    let gap = rng.gen_range(1_000..100_000u32);
    remap_trace(trace, |id| u32::MAX - 1 - (top - id) * gap)
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
    let mut previous_end: Option<MirSnapshot> = None;
    for case in 0..traces {
        let pathological = rng.gen_bool(0.05);
        let n_records = rng.gen_range(1..5usize);
        // Sometimes a trace starts from the IR the previous trace ended
        // with, as a recompile of the same function would.
        let initial = match &previous_end {
            Some(end) if rng.gen_bool(0.1) => MirSnapshot::clone(end),
            _ if pathological => pathological_snapshot(&mut rng),
            _ => random_snapshot(&mut rng, 14),
        };
        let trace = random_trace(&mut rng, initial, n_records, pathological);
        pairs += trace.records.len();
        let expected = extract_dna(&trace);
        let (got, receipt) = incremental.extract_dna(&trace);
        assert_eq!(
            got, expected,
            "whole-trace divergence: seed={seed} case={case} pathological={pathological} receipt={receipt:?}"
        );
        for (i, (before, r)) in trace.passes().enumerate() {
            let expected = extract_delta(before, &r.after);
            let got = incremental.extract_delta(before, &r.after);
            assert_eq!(
                got, expected,
                "per-pass divergence: seed={seed} case={case} record={i}"
            );
        }
        previous_end = trace.records.last().map(|r| r.after.clone());
    }
    let stats = incremental.stats();
    assert!(
        stats.passes_skipped > 0 && stats.passes_enumerated > 0,
        "sweep never exercised both the fast path and the slow path: {stats:?}"
    );
    assert!(
        stats.enum_reuses > 0,
        "sweep never reused an enumeration: {stats:?}"
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

/// Snapshots whose ids are sparse and very large (up to near
/// `u32::MAX`) take the extractor's sorted-id path: every such trace
/// extracts identically under both extractors, to the DNA of the same
/// trace over small ids. A second kind keeps small ids but gives one
/// instruction per snapshot an operand no instruction defines, with an
/// id near `u32::MAX`, so that one id alone would size a table.
#[test]
fn sparse_large_ids_extract_identically() {
    let mut rng = Rng::seed_from_u64(0x5BA6_5E1D);
    let mut incremental = IncrementalExtractor::new();
    let mut pairs = 0;
    for case in 0..800 {
        let pathological = rng.gen_bool(0.05);
        let initial = if pathological {
            pathological_snapshot(&mut rng)
        } else {
            random_snapshot(&mut rng, 14)
        };
        let n_records = rng.gen_range(1..5usize);
        let dense = random_trace(&mut rng, initial, n_records, pathological);
        pairs += dense.records.len();
        let sparse = sparse_trace(&mut rng, &dense);
        let expected = extract_dna(&dense);
        assert_eq!(extract_dna(&sparse), expected, "reference: case={case}");
        let (got, _) = incremental.extract_dna(&sparse);
        assert_eq!(got, expected, "spread ids: case={case}");

        let far = u32::MAX - rng.gen_range(0..4u32);
        let mut one_far = dense.clone();
        let snapshots = std::iter::once(&mut one_far.initial)
            .chain(one_far.records.iter_mut().map(|r| &mut r.after));
        for snapshot in snapshots {
            let mut instrs = thaw(snapshot);
            if instrs.is_empty() {
                continue;
            }
            let at = rng.gen_range(0..instrs.len());
            instrs[at].2.push(far);
            *snapshot = freeze(&instrs);
        }
        let (got, _) = incremental.extract_dna(&one_far);
        assert_eq!(got, extract_dna(&one_far), "one far operand: case={case}");
    }
    assert!(pairs >= 2_000, "only {pairs} snapshot pairs checked");
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
    use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
    use jitbull_jit::VulnConfig;
    use jitbull_vm::compile_program;

    let mut incremental = IncrementalExtractor::new();
    for v in jitbull_vdc::all_vdcs() {
        let program = parse_program(&v.source).unwrap();
        let module = compile_program(&program).unwrap();
        for name in &v.trigger_functions {
            let function = module.function(module.function_id(name).unwrap());
            let vulns = VulnConfig::with([v.cve]);
            let traced = OptimizeOptions {
                trace: true,
                ..Default::default()
            };
            let result = compile(
                &CompileInput::new(function, SlotSet::new(), &vulns),
                &traced,
            )
            .unwrap();
            let expected = extract_dna(&result.trace);
            let (got, _) = incremental.extract_dna(&result.trace);
            assert_eq!(got, expected, "divergence: vdc={} fn={name}", v.name);
        }
    }
}

/// Real pipeline traces: seeded fuzzer programs, every function
/// optimized with tracing under a seeded random set of disabled slots and,
/// for half of them, one enabled vulnerability. These are the snapshots
/// the guard actually sees, where most slots leave the IR untouched and
/// the rest rewrite it in place. One extractor serves the whole sweep, so
/// its interner, window and enumeration caches carry state across
/// programs.
#[test]
fn real_pipeline_traces_extract_identically() {
    use jitbull_frontend::parse_program;
    use jitbull_fuzzer::{generate, GenConfig};
    use jitbull_jit::pipeline::{compile, CompileInput, OptimizeOptions};
    use jitbull_jit::{CveId, VulnConfig};
    use jitbull_mir::N_SLOTS;
    use jitbull_vm::compile_program;

    let mut rng = Rng::seed_from_u64(0x9E_11AE);
    let mut incremental = IncrementalExtractor::new();
    let mut traces = 0;
    for seed in 0..80 {
        let config = GenConfig {
            seed,
            body_len: rng.gen_range(3..9usize),
            ..GenConfig::default()
        };
        let module = compile_program(&parse_program(&generate(&config)).unwrap()).unwrap();
        for (fid, function) in module.functions.iter().enumerate() {
            let vulns = if rng.gen_bool(0.5) {
                VulnConfig::with([*rng.pick(&CveId::all())])
            } else {
                VulnConfig::none()
            };
            let disabled: SlotSet = (0..N_SLOTS).filter(|_| rng.gen_bool(0.2)).collect();
            let input = CompileInput::new(function, disabled, &vulns);
            let traced = OptimizeOptions {
                trace: true,
                ..Default::default()
            };
            let Ok(result) = compile(&input, &traced) else {
                continue;
            };
            let trace = result.trace;
            let expected = extract_dna(&trace);
            let (got, receipt) = incremental.extract_dna(&trace);
            assert_eq!(
                got, expected,
                "divergence: seed={seed} function={fid} input={input:?} receipt={receipt:?}"
            );
            traces += 1;
        }
    }
    let stats = incremental.stats();
    assert!(traces >= 150, "only {traces} traces checked");
    assert!(
        stats.passes_skipped > 0 && stats.passes_enumerated > 0,
        "sweep never exercised both the fast path and the slow path: {stats:?}"
    );
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
                ..EngineConfig::fast_test()
            };
            let mut guard =
                jitbull::Guard::new(db.clone(), jitbull::CompareConfig { thr: 1, ratio: 0.5 });
            guard.set_extractor_mode(mode);
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
