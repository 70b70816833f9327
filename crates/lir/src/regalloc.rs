//! Frame-slot assignment by liveness (paper step ⑥'s backend half).
//!
//! Liveness is computed by backward dataflow over the LIR CFG; each vreg
//! gets one conservative interval covering every position where it may
//! be live (including whole blocks it is live-into/out-of, which safely
//! handles loops). Intervals are scanned in `(start, end, vreg)` order,
//! and each takes the lowest slot freed by an expired interval, or else
//! a new slot. Greedy colouring of intervals in start order is optimal,
//! so the frame holds exactly as many slots as intervals overlap at the
//! peak.
//!
//! [`apply`] renumbers every operand of the code to its frame slot, so
//! the executor indexes one frame and keeps no location table. The
//! assignment's *correctness* contract is purely that no two
//! simultaneously-live vregs share a slot — checked by tests and a
//! `debug_assert`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use jitbull_mir::dense::IdSet;

use crate::lir::{LFunction, VReg};

/// The result of slot assignment: a frame slot per vreg plus the frame
/// size.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// `slots[v]` is vreg `v`'s frame slot.
    pub slots: Vec<u32>,
    /// The peak number of simultaneously-live vregs.
    pub frame_size: u32,
    /// Live interval per vreg (positions), `None` for a vreg the code
    /// never touches; exposed for tests/inspection.
    pub intervals: Vec<Option<(u32, u32)>>,
}

/// Computes per-block live-in/live-out sets (backward dataflow).
fn liveness(f: &LFunction) -> (Vec<IdSet<VReg>>, Vec<IdSet<VReg>>) {
    let n = f.blocks.len();
    let empty = IdSet::with_bound(f.frame_size as usize);
    let mut live_in = vec![empty.clone(); n];
    let mut live_out = vec![empty.clone(); n];
    let (mut out, mut live) = (empty.clone(), empty);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            out.clear();
            for s in f.blocks[b].successors() {
                out.union_with(&live_in[s.0 as usize]);
            }
            live.clone_from(&out);
            for i in f.blocks[b].instrs.iter().rev() {
                if let Some(d) = i.dst {
                    live.remove(d);
                }
                live.extend(i.args.iter().copied());
            }
            if live != live_in[b] || out != live_out[b] {
                live_in[b].clone_from(&live);
                live_out[b].clone_from(&out);
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

/// Assigns every vreg the code touches a frame slot, reusing the slots
/// of expired intervals.
pub fn allocate(f: &LFunction) -> Allocation {
    let (live_in, live_out) = liveness(f);
    let mut intervals: Vec<Option<(u32, u32)>> = vec![None; f.frame_size as usize];
    let mut record = |v: VReg, p: u32| {
        let e = intervals[v.0 as usize].get_or_insert((p, p));
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    };
    // Linear positions per instruction, blocks laid out in order.
    let mut pos = 0u32;
    for (bi, b) in f.blocks.iter().enumerate() {
        let start = pos;
        for i in &b.instrs {
            for v in i.dst.iter().chain(&i.args) {
                record(*v, pos);
            }
            pos += 1;
        }
        // Conservative widening: anything live across the block's
        // boundary reaches that boundary, so a vreg live through the
        // block covers all of it.
        let end = pos.saturating_sub(1).max(start);
        for v in live_in[bi].iter() {
            record(v, start);
        }
        for v in live_out[bi].iter() {
            record(v, end);
        }
    }

    let mut order: Vec<(u32, u32, usize)> = intervals
        .iter()
        .enumerate()
        .filter_map(|(v, interval)| interval.map(|(start, end)| (start, end, v)))
        .collect();
    order.sort_unstable();
    let mut slots = vec![0; intervals.len()];
    // `(end, slot)` of the intervals holding a slot, earliest end first.
    let mut active: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    let mut free: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    let mut frame_size = 0;
    for (start, end, v) in order {
        while let Some(&Reverse((e, slot))) = active.peek() {
            if e >= start {
                break;
            }
            active.pop();
            free.push(Reverse(slot));
        }
        let slot = match free.pop() {
            Some(Reverse(slot)) => slot,
            None => {
                frame_size += 1;
                frame_size - 1
            }
        };
        slots[v] = slot;
        active.push(Reverse((end, slot)));
    }
    Allocation {
        slots,
        frame_size,
        intervals,
    }
}

/// Applies an allocation to the function: renumbers every operand to its
/// frame slot and sets the frame size.
pub fn apply(f: &mut LFunction, allocation: &Allocation) {
    debug_assert!(verify(allocation), "overlapping intervals share a slot");
    let slot = |v: &mut VReg| *v = VReg(allocation.slots[v.0 as usize]);
    for instr in f.blocks.iter_mut().flat_map(|b| b.instrs.iter_mut()) {
        instr.dst.iter_mut().for_each(slot);
        instr.args.iter_mut().for_each(slot);
    }
    f.frame_size = allocation.frame_size;
}

/// Checks the allocation invariant: every touched vreg's slot is in the
/// frame, and no two vregs with overlapping live intervals share a slot.
pub fn verify(allocation: &Allocation) -> bool {
    let live: Vec<(u32, u32, u32)> = allocation
        .intervals
        .iter()
        .zip(&allocation.slots)
        .filter_map(|(interval, &slot)| interval.map(|(s, e)| (s, e, slot)))
        .collect();
    live.iter().enumerate().all(|(k, &(s1, e1, slot1))| {
        slot1 < allocation.frame_size
            && live[k + 1..]
                .iter()
                .all(|&(s2, e2, slot2)| !(s1 <= e2 && s2 <= e1) || slot1 != slot2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use jitbull_frontend::parse_program;
    use jitbull_mir::build_mir;
    use jitbull_vm::compile_program;

    fn lir_of(src: &str, name: &str) -> LFunction {
        let p = parse_program(src).unwrap();
        let m = compile_program(&p).unwrap();
        let mir = build_mir(m.function(m.function_id(name).unwrap())).unwrap();
        lower(&mir)
    }

    /// The most intervals that contain one position.
    fn peak_live(alloc: &Allocation) -> u32 {
        let intervals: Vec<(u32, u32)> = alloc.intervals.iter().flatten().copied().collect();
        let live_at = |p: u32| intervals.iter().filter(|(s, e)| *s <= p && p <= *e).count();
        intervals
            .iter()
            .map(|(s, _)| live_at(*s))
            .max()
            .unwrap_or(0) as u32
    }

    #[test]
    fn small_function_frame_is_peak_live() {
        let f = lir_of("function f(a, b) { return a * b + a - b; }", "f");
        let alloc = allocate(&f);
        assert_eq!(alloc.frame_size, peak_live(&alloc));
        assert!(alloc.frame_size < 16, "{f}");
        assert!(verify(&alloc));
    }

    #[test]
    fn loop_allocation_is_sound() {
        let f = lir_of(
            "function f(n, a) { var t = 0; for (var i = 0; i < n; i++) { t = t + a[i & 3] * i; } return t; }",
            "f",
        );
        let alloc = allocate(&f);
        assert!(verify(&alloc), "{f}");
    }

    #[test]
    fn register_pressure_grows_the_frame() {
        // Build an expression needing > 16 simultaneously-live values.
        let mut src = String::from("function f(a) {\n");
        for i in 0..24 {
            src.push_str(&format!("var x{i} = a * {};\n", i + 2));
        }
        src.push_str("return ");
        for i in 0..24 {
            if i > 0 {
                src.push_str(" + ");
            }
            src.push_str(&format!("x{i} * x{i}"));
        }
        src.push_str(";\n}");
        let f = lir_of(&src, "f");
        let alloc = allocate(&f);
        assert!(alloc.frame_size > 16, "expected a frame above 16 slots");
        assert_eq!(alloc.frame_size, peak_live(&alloc));
        assert!(verify(&alloc));
    }

    #[test]
    fn verify_checks_intervals_at_position_zero() {
        let shared = Allocation {
            slots: vec![0, 0],
            frame_size: 1,
            intervals: vec![Some((0, 0)), Some((0, 3))],
        };
        assert!(!verify(&shared));
        let untouched = Allocation {
            intervals: vec![None, Some((0, 3))],
            ..shared
        };
        assert!(verify(&untouched));
    }

    #[test]
    fn liveness_flows_through_loops() {
        let f = lir_of(
            "function f(n, k) { var t = 0; for (var i = 0; i < n; i++) { t = t + k; } return t; }",
            "f",
        );
        let (live_in, _) = liveness(&f);
        // Some block has live-in values (the loop header carries t/i/n/k).
        assert!(live_in.iter().any(|s| s.len() >= 2), "{live_in:?}");
    }
}
