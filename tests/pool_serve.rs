//! End-to-end lockdown of the `jitbull-pool` serving runtime.
//!
//! The pool's three guarantees, exercised from the outside:
//!
//! 1. **No lost responses** — every accepted ticket resolves, even when
//!    the serving worker panics or the pool shuts down with the queue
//!    non-empty.
//! 2. **No stale verdicts** — every response's
//!    `db_generation >= min_generation`, and the response's matched CVEs
//!    are exactly those of the snapshot published under that generation.
//! 3. **Graceful degradation** — overload rejects fast with
//!    [`PoolError::Overload`], deadline-lapsed requests fall back to
//!    interpreter-only execution, and a panicking worker is respawned.
//!
//! The `#[ignore]` soak at the bottom runs all three at once for ~2000
//! requests with hot-swaps and fault injection mid-traffic (CI runs it
//! in release via `-- --ignored`).

use std::collections::BTreeMap;
use std::time::Duration;

use jitbull::{CompareConfig, DnaDatabase};
use jitbull_jit::engine::EngineConfig;
use jitbull_jit::CveId;
use jitbull_pool::{Pool, PoolConfig, PoolError, Request, Ticket};
use jitbull_vdc::{build_database, vdc};

/// The repo's test-convention thresholds: guaranteed self-matches, so a
/// served ServeArray request flags every database entry carrying
/// CVE-2019-17026's DNA.
const PERMISSIVE: CompareConfig = CompareConfig { thr: 1, ratio: 0.5 };

fn config(workers: usize, capacity: usize) -> PoolConfig {
    PoolConfig {
        workers,
        capacity,
        compare: PERMISSIVE,
        ..PoolConfig::default()
    }
}

/// A ServeArray request under the fast tier thresholds — hot enough to
/// reach the optimizing tier (and therefore DNA analysis) in one run.
fn serve_array() -> Request {
    let mix = jitbull_workloads::serving_mix();
    let w = mix.iter().find(|w| w.name == "ServeArray").unwrap();
    Request::new(w.source.clone()).with_config(EngineConfig::fast_test())
}

/// A script heavy enough to pin a worker for tens of milliseconds.
fn heavy() -> Request {
    Request::new(
        r#"
var t = 0;
for (var i = 0; i < 400; i++) {
  for (var j = 0; j < 1000; j++) { t = t + i * j; }
}
print(t);
"#,
    )
}

/// The CVE-2019-17026 donor DNA, reinstalled under fresh CVE names so
/// matched-CVE sets encode which snapshot served a request.
fn donor() -> DnaDatabase {
    build_database(&[vdc(CveId::Cve2019_17026)]).expect("vdc database builds")
}

fn install_round(pool: &Pool, round: usize) {
    for e in donor().entries() {
        pool.install(
            format!("CVE-SWAP-{round}"),
            e.function.clone(),
            e.dna.clone(),
        );
    }
}

/// Generation → sorted CVE names for every snapshot this test published;
/// the single test thread is the only publisher, so reading
/// `published()` right after a publish observes exactly that snapshot.
fn map_entry(pool: &Pool, map: &mut BTreeMap<u64, Vec<String>>) {
    let snap = pool.published();
    let mut cves: Vec<String> = snap.cves().into_iter().map(str::to_owned).collect();
    cves.sort();
    cves.dedup();
    map.insert(snap.generation(), cves);
}

#[test]
fn every_ticket_resolves_when_pool_drops_with_queued_work() {
    let pool = Pool::new(config(2, 32), DnaDatabase::new());
    let tickets: Vec<Ticket> = (0..12)
        .map(|_| pool.submit(serve_array()).expect("capacity 32"))
        .collect();
    // Drop with most of the queue unserved: close() drains, so every
    // ticket must still resolve (with a real response, not an error).
    drop(pool);
    for t in tickets {
        let r = t.wait().expect("drained request serves");
        assert!(!r.printed.is_empty());
    }
}

#[test]
fn workers_share_one_dna_memo_across_requests_and_hotswaps() {
    use jitbull::DnaMemo;
    let memo = DnaMemo::default();
    let cfg = PoolConfig {
        memo: memo.clone(),
        ..config(2, 32)
    };
    let pool = Pool::new(cfg, donor());
    // Same script, compiled repeatedly: after the first extraction the
    // shared memo must serve every worker, whichever one dequeues.
    for _ in 0..6 {
        let r = pool.submit(serve_array()).unwrap().wait().unwrap();
        assert!(!r.printed.is_empty());
    }
    let warm = memo.stats();
    assert!(warm.lookups >= 6, "every Ion compile consults the memo");
    assert!(warm.hits >= 4, "repeat compiles hit the shared store");
    // A hot swap changes the database, not the extraction: the memo
    // keeps its entries and keeps hitting.
    install_round(&pool, 0);
    let r = pool.submit(serve_array()).unwrap().wait().unwrap();
    assert!(!r.printed.is_empty());
    assert!(memo.stats().hits > warm.hits, "memo survives the hot swap");
    pool.shutdown();
}

#[test]
fn serving_mix_on_a_shared_cache_answers_like_the_interpreter() {
    use jitbull::DnaMemo;
    let memo = DnaMemo::default();
    let cfg = PoolConfig {
        workers: 2,
        capacity: 64,
        memo: memo.clone(),
        ..PoolConfig::default()
    };
    let db = build_database(&jitbull_vdc::all_vdcs()).expect("catalog builds");
    let pool = Pool::new(cfg, db);
    let mix = jitbull_workloads::serving_mix();
    // Several passes over the mix: after the first, optimizing compiles
    // are served their stored code, whichever worker runs them.
    for pass in 0..4 {
        let tickets: Vec<(&str, Ticket)> = mix
            .iter()
            .map(|w| {
                let request = Request::new(w.source.clone()).with_config(EngineConfig::fast_test());
                (w.name, pool.submit(request).expect("capacity 64"))
            })
            .collect();
        for ((name, ticket), w) in tickets.into_iter().zip(&mix) {
            let expected = jitbull_vm::run_source(&w.source)
                .expect("interprets")
                .printed;
            let got = ticket.wait().expect("served");
            assert!(!got.degraded, "pass {pass} {name}: degraded");
            assert_eq!(got.printed, expected, "pass {pass} {name}");
        }
    }
    let stats = memo.stats();
    assert!(stats.hits > 0, "{stats:?}");
    assert!(stats.code_hits > 0, "no hit served code: {stats:?}");
    pool.shutdown();
}

#[test]
fn overload_rejects_immediately_with_depth() {
    let pool = Pool::new(config(1, 2), DnaDatabase::new());
    let slow = pool.submit(heavy()).expect("first request fits");
    // Give the single worker time to dequeue the heavy request; the
    // queue is then empty and refills while the worker is pinned.
    std::thread::sleep(Duration::from_millis(20));
    let queued: Vec<Ticket> = (0..2)
        .filter_map(|_| pool.submit(serve_array()).ok())
        .collect();
    assert_eq!(queued.len(), 2, "capacity-2 queue accepts two");
    let mut rejections = 0;
    for _ in 0..4 {
        match pool.submit(serve_array()) {
            Err(PoolError::Overload { depth }) => {
                assert_eq!(depth, 2, "rejection reports the full depth");
                rejections += 1;
            }
            Ok(t) => drop(t.wait()),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejections >= 1, "full queue never rejected");
    slow.wait().expect("heavy request still serves");
    for t in queued {
        t.wait().expect("queued requests still serve");
    }
    let stats = pool.shutdown();
    assert_eq!(stats.rejected, rejections);
    assert_eq!(stats.submitted + stats.rejected, 3 + 4);
}

#[test]
fn lapsed_deadline_degrades_to_interpreter_only() {
    let pool = Pool::new(config(1, 8), donor());
    let on_time = pool
        .submit(serve_array())
        .unwrap()
        .wait()
        .expect("serves cleanly");
    assert!(!on_time.degraded);
    assert!(on_time.nr_jit >= 1, "fast thresholds reach the JIT");
    assert!(
        on_time.matched_cves.iter().any(|c| c == "CVE-2019-17026"),
        "permissive thresholds flag the honest false positive"
    );
    // A zero deadline has always lapsed by dequeue time: same script,
    // interpreter-only — no JIT tiers, no DNA analysis, still a result.
    let late = pool
        .submit(serve_array().with_deadline(Duration::ZERO))
        .unwrap()
        .wait()
        .expect("degraded request still serves");
    assert!(late.degraded);
    assert_eq!(late.nr_jit, 0);
    assert_eq!(late.matched_cves, Vec::<String>::new());
    assert_eq!(late.printed, on_time.printed, "same answer either way");
    let stats = pool.shutdown();
    assert_eq!(stats.degraded, 1);
}

/// A script recursing past `Runtime::MAX_DEPTH` (600 frames: the entry
/// frame plus 599 calls) ends in the depth error, on the optimizing tier
/// and in the interpreter, even in a debug build, whose frames are
/// largest: a worker's native stack holds `MAX_DEPTH` script calls.
#[test]
fn recursion_past_the_depth_limit_ends_in_a_script_error() {
    let recursion = |depth: u32| {
        Request::new(format!(
            "function down(n) {{ if (n == 0) {{ return 0; }} return down(n - 1) + 1; }}
for (var i = 0; i < 20; i++) {{ down(i); }}
print(down({depth}));"
        ))
        .with_config(EngineConfig::fast_test())
    };
    let pool = Pool::new(config(1, 8), donor());
    let deepest = pool.submit(recursion(598)).unwrap().wait();
    let deepest = deepest.expect("MAX_DEPTH frames run");
    assert!(deepest.nr_jit >= 1, "the recursion reaches the JIT");
    assert_eq!(deepest.printed.last().map(String::as_str), Some("598"));
    for request in [recursion(599), recursion(599).with_deadline(Duration::ZERO)] {
        match pool.submit(request).unwrap().wait() {
            Err(PoolError::Script(e)) => {
                assert!(e.contains("call stack depth exceeded"), "{e}")
            }
            other => panic!("expected the depth error, got {other:?}"),
        }
    }
    pool.shutdown();
}

#[test]
fn panicking_worker_is_isolated_and_respawned() {
    let pool = Pool::new(config(1, 8), DnaDatabase::new());
    // The single worker panics mid-service; the ticket must not hang.
    let err = pool
        .submit(Request::new("print(1);").with_chaos_panic())
        .unwrap()
        .wait()
        .expect_err("chaos request cannot succeed");
    assert!(matches!(err, PoolError::Panicked));
    // The supervisor respawned the only worker: the pool still serves.
    let after = pool.submit(serve_array()).unwrap().wait().unwrap();
    assert!(!after.printed.is_empty());
    let stats = pool.shutdown();
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.served, 1, "the chaos request is not counted served");
}

#[test]
fn hot_swap_serves_no_stale_verdicts() {
    let pool = Pool::new(config(2, 64), DnaDatabase::new());
    let mut map: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    map_entry(&pool, &mut map); // the empty database
    let mut tickets: Vec<(u64, Ticket)> = Vec::new();
    for round in 0..5 {
        for _ in 0..4 {
            let submit_generation = pool.published().generation();
            tickets.push((submit_generation, pool.submit(serve_array()).unwrap()));
        }
        install_round(&pool, round);
        map_entry(&pool, &mut map);
    }
    for (submit_generation, t) in tickets {
        let r = t.wait().expect("serves cleanly");
        // The no-stale-verdict guarantee, end to end.
        assert!(r.min_generation >= submit_generation);
        assert!(
            r.db_generation >= r.min_generation,
            "stale snapshot: served generation {} < submit-time generation {}",
            r.db_generation,
            r.min_generation
        );
        let cves = map
            .get(&r.db_generation)
            .unwrap_or_else(|| panic!("unpublished generation {}", r.db_generation));
        // Every installed entry carries the same donor DNA, so the
        // matched set must be exactly the snapshot's CVE list.
        assert_eq!(&r.matched_cves, cves, "generation {}", r.db_generation);
    }
    let stats = pool.shutdown();
    assert_eq!(stats.served, 20);
    assert_eq!(stats.hotswaps, 5);
}

/// Release-profile soak: ~2000 requests across 4 workers with a hot-swap
/// every 120 requests, fault injection, and zero-deadline stragglers.
/// Every ticket must resolve; every response must satisfy the generation
/// and content checks of [`hot_swap_serves_no_stale_verdicts`].
#[test]
#[ignore = "pool soak; run with --release -- --ignored"]
fn soak_hot_swaps_chaos_and_deadlines_for_2000_requests() {
    const ROUNDS: usize = 16;
    const PER_ROUND: usize = 120;
    const CHAOS_PER_ROUND: usize = 2;
    const LATE_PER_ROUND: usize = 3;

    let pool = Pool::new(config(4, 4096), DnaDatabase::new());
    let mut map: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    map_entry(&pool, &mut map);
    // (submit-time generation, had a deadline, ticket); chaos tracked
    // apart.
    let mut normal: Vec<(u64, bool, Ticket)> = Vec::new();
    let mut chaos: Vec<Ticket> = Vec::new();
    for round in 0..ROUNDS {
        for i in 0..PER_ROUND {
            let late = i % (PER_ROUND / LATE_PER_ROUND) == 7;
            let request = if late {
                serve_array().with_deadline(Duration::ZERO)
            } else {
                serve_array()
            };
            normal.push((
                pool.published().generation(),
                late,
                pool.submit(request).expect("capacity"),
            ));
        }
        for _ in 0..CHAOS_PER_ROUND {
            chaos.push(
                pool.submit(Request::new("print(0);").with_chaos_panic())
                    .expect("capacity"),
            );
        }
        install_round(&pool, round);
        map_entry(&pool, &mut map);
    }

    let total = normal.len();
    for (submit_generation, late, t) in normal {
        let r = t.wait().expect("every non-chaos request serves");
        assert!(r.min_generation >= submit_generation);
        assert!(r.db_generation >= r.min_generation, "stale snapshot served");
        let cves = map
            .get(&r.db_generation)
            .unwrap_or_else(|| panic!("unpublished generation {}", r.db_generation));
        if r.degraded {
            assert_eq!(r.matched_cves, Vec::<String>::new());
        } else {
            assert_eq!(&r.matched_cves, cves);
        }
        assert!(r.degraded || !late || !r.printed.is_empty());
    }
    for t in chaos {
        let err = t.wait().expect_err("chaos requests fail");
        assert!(matches!(err, PoolError::Panicked));
    }

    let stats = pool.shutdown();
    assert_eq!(stats.served, total as u64, "lost responses");
    assert_eq!(stats.worker_restarts, (ROUNDS * CHAOS_PER_ROUND) as u64);
    assert_eq!(stats.hotswaps, ROUNDS as u64);
    assert_eq!(stats.rejected, 0);
    // All four workers actually shared the load.
    assert!(stats.worker_cycles.iter().all(|&c| c > 0));
}

#[test]
fn failed_reload_keeps_the_old_database_serving() {
    let pool = Pool::new(config(1, 8), donor());
    let generation_before = pool.published().generation();
    let err = pool
        .reload_from_text("@entry CVE-X f\n0 ? bad-sign\n")
        .expect_err("malformed update is refused");
    assert_eq!(err.kind(), "parse");
    assert_eq!(
        pool.published().generation(),
        generation_before,
        "failed reload must not publish"
    );
    let r = pool.submit(serve_array()).unwrap().wait().unwrap();
    assert!(
        r.matched_cves.iter().any(|c| c == "CVE-2019-17026"),
        "old database still serving after the refused update"
    );
    // A well-formed update in the same wire format goes through.
    let generation = pool
        .reload_from_text(&DnaDatabase::new().to_text())
        .expect("empty update is well-formed");
    assert!(generation > generation_before);
    assert_eq!(pool.published().generation(), generation);
    let r = pool.submit(serve_array()).unwrap().wait().unwrap();
    assert_eq!(r.matched_cves, Vec::<String>::new());
    assert!(r.db_generation >= generation);
}
