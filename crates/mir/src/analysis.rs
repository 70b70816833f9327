//! CFG analyses used by the optimization passes: reverse postorder,
//! dominator tree, and natural-loop detection.

use std::collections::HashSet;

use crate::graph::{BlockId, MirFunction};

/// Blocks in reverse postorder starting from the entry (unreachable blocks
/// excluded).
pub fn reverse_postorder(f: &MirFunction) -> Vec<BlockId> {
    let n = f.block_count();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit phase marker.
    let mut stack = vec![(BlockId(0), false)];
    while let Some((b, processed)) = stack.pop() {
        if processed {
            post.push(b);
            continue;
        }
        if visited[b.0 as usize] {
            continue;
        }
        visited[b.0 as usize] = true;
        stack.push((b, true));
        for s in f.block(b).successors() {
            if !visited[s.0 as usize] {
                stack.push((s, false));
            }
        }
    }
    post.reverse();
    post
}

/// Immediate dominators computed with the classic iterative algorithm
/// (Cooper, Harvey, Kennedy). `idom[entry] == entry`; unreachable blocks
/// get `None`.
pub fn immediate_dominators(f: &MirFunction) -> Vec<Option<BlockId>> {
    let n = f.block_count();
    let rpo = reverse_postorder(f);
    let mut rpo_index = vec![usize::MAX; n];
    for (i, b) in rpo.iter().enumerate() {
        rpo_index[b.0 as usize] = i;
    }
    let preds = f.predecessors();
    let mut idom: Vec<Option<BlockId>> = vec![None; n];
    idom[0] = Some(BlockId(0));
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let bi = b.0 as usize;
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[bi] {
                if idom[p.0 as usize].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(p, cur, &idom, &rpo_index),
                });
            }
            if let Some(ni) = new_idom {
                if idom[bi] != Some(ni) {
                    idom[bi] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom
}

fn intersect(
    mut a: BlockId,
    mut b: BlockId,
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
) -> BlockId {
    while a != b {
        while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
            a = idom[a.0 as usize].expect("processed block has idom");
        }
        while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
            b = idom[b.0 as usize].expect("processed block has idom");
        }
    }
    a
}

/// Whether `a` dominates `b` (reflexive).
pub fn dominates(a: BlockId, b: BlockId, idom: &[Option<BlockId>]) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.0 as usize] {
            Some(d) if d != cur => cur = d,
            _ => return false,
        }
    }
}

/// A natural loop: its header plus the set of member blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (dominates every member).
    pub header: BlockId,
    /// All blocks in the loop, header included.
    pub members: HashSet<BlockId>,
}

impl NaturalLoop {
    /// Whether the block belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.members.contains(&b)
    }
}

/// Finds all natural loops: for every back edge `t → h` where `h`
/// dominates `t`, collect the blocks that reach `t` without passing
/// through `h`. Loops sharing a header are merged.
pub fn natural_loops(f: &MirFunction) -> Vec<NaturalLoop> {
    let idom = immediate_dominators(f);
    let preds = f.predecessors();
    let mut loops: Vec<NaturalLoop> = Vec::new();
    for b in f.block_ids() {
        if idom[b.0 as usize].is_none() {
            continue;
        }
        for s in f.block(b).successors() {
            if dominates(s, b, &idom) {
                // Back edge b -> s; walk predecessors from b up to s.
                let mut members = HashSet::new();
                members.insert(s);
                let mut work = vec![b];
                while let Some(x) = work.pop() {
                    if members.insert(x) {
                        for &p in &preds[x.0 as usize] {
                            work.push(p);
                        }
                    }
                }
                if let Some(existing) = loops.iter_mut().find(|l| l.header == s) {
                    existing.members.extend(members);
                } else {
                    loops.push(NaturalLoop { header: s, members });
                }
            }
        }
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_mir;
    use jitbull_frontend::parse_program;
    use jitbull_vm::compile_program;

    fn mir_of(src: &str, name: &str) -> MirFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        build_mir(m.function(m.function_id(name).unwrap())).unwrap()
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all_reachable() {
        let f = mir_of("function f(c) { if (c) { return 1; } return 2; }", "f");
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), f.block_count());
    }

    #[test]
    fn entry_dominates_everything() {
        let f = mir_of(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }",
            "f",
        );
        let idom = immediate_dominators(&f);
        for b in f.block_ids() {
            assert!(dominates(BlockId(0), b, &idom), "entry must dominate {b}");
        }
    }

    #[test]
    fn loop_detection_finds_for_loop() {
        let f = mir_of(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }",
            "f",
        );
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert!(l.members.len() >= 2);
        // Header must have phis (it is a join of entry and back edge).
        assert!(!f.block(l.header).phis.is_empty());
    }

    #[test]
    fn nested_loops_detected_separately() {
        let f = mir_of(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { for (var j = 0; j < n; j++) { t += j; } } return t; }",
            "f",
        );
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 2);
        // One loop strictly contains the other.
        let (a, b) = (&loops[0], &loops[1]);
        let (outer, inner) = if a.members.len() > b.members.len() {
            (a, b)
        } else {
            (b, a)
        };
        assert!(inner.members.iter().all(|m| outer.members.contains(m)));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let f = mir_of("function f(a) { return a + 1; }", "f");
        assert!(natural_loops(&f).is_empty());
    }

    #[test]
    fn idom_of_join_is_branch_block() {
        let f = mir_of(
            "function f(c) { var x; if (c) { x = 1; } else { x = 2; } return x; }",
            "f",
        );
        let idom = immediate_dominators(&f);
        // Find the join (2 preds) and the branch (Test terminator).
        let preds = f.predecessors();
        let join = f
            .block_ids()
            .find(|b| preds[b.0 as usize].len() == 2)
            .unwrap();
        let branch = f
            .block_ids()
            .find(|b| f.block(*b).successors().len() == 2)
            .unwrap();
        assert_eq!(idom[join.0 as usize], Some(branch));
    }
}
