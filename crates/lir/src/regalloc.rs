//! Linear-scan register allocation (paper step ⑥'s backend half).
//!
//! Liveness is computed by backward dataflow over the LIR CFG; each vreg
//! gets one conservative interval covering every position where it may
//! be live (including whole blocks it is live-into/out-of, which safely
//! handles loops). Intervals are then scanned in start order over
//! [`N_REGS`] simulated machine registers; when the register file is
//! exhausted the interval with the furthest end is spilled to a stack
//! slot.
//!
//! Registers and spill slots are one frame: register `r` is frame slot
//! `r` and spill slot `s` is frame slot `N_REGS + s`. [`apply`] renumbers
//! every operand of the code to its frame slot, so the executor indexes
//! one frame and keeps no location table. The allocation's *correctness*
//! contract is purely that no two simultaneously-live vregs share a
//! slot — checked by tests and a `debug_assert`.

use std::collections::{HashMap, HashSet};

use crate::lir::{LFunction, VReg};

/// Number of simulated machine registers.
pub const N_REGS: u32 = 16;

/// The result of allocation: a frame slot per vreg plus the frame size.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// `slots[v]` is vreg `v`'s frame slot.
    pub slots: Vec<u32>,
    /// The machine registers plus the spill slots used.
    pub frame_size: u32,
    /// Live interval per vreg (positions), exposed for tests/inspection.
    pub intervals: Vec<(u32, u32)>,
}

/// Computes per-block live-in/live-out sets (backward dataflow).
fn liveness(f: &LFunction) -> (Vec<HashSet<VReg>>, Vec<HashSet<VReg>>) {
    let n = f.blocks.len();
    let mut live_in: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut live_out: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut out = HashSet::new();
            for s in f.blocks[b].successors() {
                out.extend(live_in[s.0 as usize].iter().copied());
            }
            let mut live = out.clone();
            for i in f.blocks[b].instrs.iter().rev() {
                if let Some(d) = i.dst {
                    live.remove(&d);
                }
                for a in &i.args {
                    live.insert(*a);
                }
            }
            if live != live_in[b] || out != live_out[b] {
                live_in[b] = live;
                live_out[b] = out;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

/// Runs linear scan and returns the allocation.
pub fn allocate(f: &LFunction) -> Allocation {
    let (live_in, live_out) = liveness(f);
    // Linear positions per instruction, block extents.
    let mut pos = 0u32;
    let mut block_range: Vec<(u32, u32)> = Vec::with_capacity(f.blocks.len());
    let mut touch: HashMap<VReg, (u32, u32)> = HashMap::new();
    let record = |v: VReg, p: u32, touch: &mut HashMap<VReg, (u32, u32)>| {
        let e = touch.entry(v).or_insert((p, p));
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    };
    for (bi, b) in f.blocks.iter().enumerate() {
        let start = pos;
        for i in &b.instrs {
            if let Some(d) = i.dst {
                record(d, pos, &mut touch);
            }
            for a in &i.args {
                record(*a, pos, &mut touch);
            }
            pos += 1;
        }
        let end = pos.saturating_sub(1).max(start);
        block_range.push((start, end));
        // Conservative widening: anything live across the block's
        // boundary covers the whole block.
        for v in &live_in[bi] {
            record(*v, start, &mut touch);
        }
        for v in &live_out[bi] {
            record(*v, end, &mut touch);
        }
    }
    // Extend intervals over every block a vreg is live-through.
    for (bi, (start, end)) in block_range.iter().enumerate() {
        for v in live_in[bi].intersection(&live_out[bi]) {
            let e = touch.entry(*v).or_insert((*start, *end));
            e.0 = e.0.min(*start);
            e.1 = e.1.max(*end);
        }
    }

    let mut intervals: Vec<(u32, u32)> = vec![(0, 0); f.frame_size as usize];
    for (v, (s, e)) in &touch {
        intervals[v.0 as usize] = (*s, *e);
    }
    // Linear scan.
    let mut order: Vec<VReg> = touch.keys().copied().collect();
    order.sort_by_key(|v| intervals[v.0 as usize]);
    let mut slots = vec![0; f.frame_size as usize];
    let mut active: Vec<VReg> = Vec::new(); // holding a register
    let mut free: Vec<u32> = (0..N_REGS).rev().collect();
    let mut frame_size = N_REGS;
    for v in order {
        let (start, end) = intervals[v.0 as usize];
        // Expire finished intervals.
        active.retain(|a| {
            let expired = intervals[a.0 as usize].1 < start;
            if expired {
                free.push(slots[a.0 as usize]);
            }
            !expired
        });
        if let Some(r) = free.pop() {
            slots[v.0 as usize] = r;
            active.push(v);
            continue;
        }
        // Spill the interval with the furthest end.
        let victim = active
            .iter()
            .copied()
            .max_by_key(|a| intervals[a.0 as usize].1)
            .expect("register file exhausted implies active intervals");
        let spill = frame_size;
        frame_size += 1;
        if intervals[victim.0 as usize].1 > end {
            // Victim takes the spill slot; v inherits its register.
            slots[v.0 as usize] = slots[victim.0 as usize];
            slots[victim.0 as usize] = spill;
            active.retain(|a| *a != victim);
            active.push(v);
        } else {
            slots[v.0 as usize] = spill;
        }
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

/// Checks the allocation invariant: no two vregs with overlapping live
/// intervals share a frame slot.
pub fn verify(allocation: &Allocation) -> bool {
    let n = allocation.intervals.len();
    for a in 0..n {
        for b in (a + 1)..n {
            let (s1, e1) = allocation.intervals[a];
            let (s2, e2) = allocation.intervals[b];
            if (s1, e1) == (0, 0) || (s2, e2) == (0, 0) {
                continue; // untouched vreg
            }
            let overlap = s1 <= e2 && s2 <= e1;
            if overlap && allocation.slots[a] == allocation.slots[b] {
                return false;
            }
        }
    }
    true
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

    #[test]
    fn small_function_fits_in_registers() {
        let f = lir_of("function f(a, b) { return a * b + a - b; }", "f");
        let alloc = allocate(&f);
        assert_eq!(alloc.frame_size, N_REGS);
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
    fn register_pressure_forces_spills() {
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
        assert!(alloc.frame_size > N_REGS, "expected spills");
        assert!(verify(&alloc));
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
