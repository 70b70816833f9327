//! The flat element heap.
//!
//! Array element storage lives in one linear `Vec<Value>` of *cells*. Each
//! array occupies a contiguous region:
//!
//! ```text
//!   base+0 : length   (a Number cell — mutable via `arr.length = n`)
//!   base+1 : capacity (a Number cell)
//!   base+2 … base+1+capacity : elements
//! ```
//!
//! Consecutively allocated arrays are adjacent, so an out-of-bounds write
//! past one array's capacity lands on the next array's **length header** —
//! the exact memory-layout property the CVE-2019-17026 proof of concept
//! exploits in SpiderMonkey (shrink `arr.length`, get the JIT to drop the
//! bounds check, overflow into the neighbouring array, then use the
//! corrupted neighbour as an arbitrary read/write primitive).
//!
//! Two access levels are provided:
//!
//! * **checked** accessors ([`Heap::get_elem`] / [`Heap::set_elem`]) consult
//!   the length header first — these are what the interpreter and baseline
//!   tiers use;
//! * **raw** accessors ([`Heap::raw_read`] / [`Heap::raw_write`]) touch the
//!   cell directly and only trap when escaping the heap itself — these are
//!   what optimized JIT code uses *after* a `BoundsCheck` instruction has
//!   vouched for the index. If a buggy optimization pass removes the
//!   `BoundsCheck`, raw accesses silently corrupt neighbouring cells.

use crate::error::VmError;
use crate::value::{is_integral, ArrId, Value};

#[derive(Debug, Clone, Copy)]
struct ArrayMeta {
    base: usize,
}

/// The flat element heap plus the array table.
#[derive(Debug, Default)]
pub struct Heap {
    cells: Vec<Value>,
    arrays: Vec<ArrayMeta>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Number of cells currently allocated.
    pub fn size(&self) -> usize {
        self.cells.len()
    }

    /// Allocates an array with `len` elements (all `fill`) and capacity
    /// `cap >= len`. Returns its id. The region is appended to the heap, so
    /// arrays allocated back-to-back are adjacent in cell space.
    pub fn alloc_array(&mut self, len: usize, cap: usize, fill: Value) -> ArrId {
        let cap = cap.max(len);
        let base = self.cells.len();
        self.cells.push(Value::Number(len as f64));
        self.cells.push(Value::Number(cap as f64));
        for _ in 0..cap {
            self.cells.push(fill.clone());
        }
        let id = ArrId(self.arrays.len() as u32);
        self.arrays.push(ArrayMeta { base });
        id
    }

    /// Allocates an array from explicit items (length == capacity ==
    /// `items.len()`).
    pub fn alloc_array_from(&mut self, items: Vec<Value>) -> ArrId {
        let len = items.len();
        let base = self.cells.len();
        self.cells.push(Value::Number(len as f64));
        self.cells.push(Value::Number(len as f64));
        self.cells.extend(items);
        let id = ArrId(self.arrays.len() as u32);
        self.arrays.push(ArrayMeta { base });
        id
    }

    #[inline]
    fn meta(&self, arr: ArrId) -> ArrayMeta {
        self.arrays[arr.0 as usize]
    }

    /// The cell address of the array's length header.
    pub fn length_addr(&self, arr: ArrId) -> usize {
        self.meta(arr).base
    }

    /// The cell address of element `idx` (no checks — address arithmetic
    /// only).
    #[inline]
    pub fn elem_addr(&self, arr: ArrId, idx: usize) -> usize {
        self.meta(arr).base + 2 + idx
    }

    /// The array's current length, as stored in its (corruptible) header
    /// cell. A corrupted header yields whatever number the attacker wrote.
    #[inline]
    pub fn length(&self, arr: ArrId) -> usize {
        let n = match &self.cells[self.meta(arr).base] {
            Value::Number(n) => *n,
            other => other.to_number(),
        };
        if n.is_finite() && n >= 0.0 {
            n as usize
        } else {
            0
        }
    }

    /// The array's capacity, from its header cell.
    pub fn capacity(&self, arr: ArrId) -> usize {
        let base = self.meta(arr).base;
        let n = self.cells[base + 1].to_number();
        if n.is_finite() && n >= 0.0 {
            n as usize
        } else {
            0
        }
    }

    /// Sets `arr.length = new_len`. Shrinking just rewrites the header
    /// (elements beyond stay in memory — exactly the stale-storage
    /// behaviour the 17026 exploit banks on). Growing beyond capacity
    /// reallocates the array at the end of the heap.
    pub fn set_length(&mut self, arr: ArrId, new_len: usize) {
        let cap = self.capacity(arr);
        if new_len <= cap {
            let base = self.meta(arr).base;
            // Elements between the old and new length become undefined when
            // growing within capacity.
            let old_len = self.length(arr);
            for i in old_len..new_len.min(cap) {
                self.cells[base + 2 + i] = Value::Undefined;
            }
            self.cells[base] = Value::Number(new_len as f64);
        } else {
            self.grow(arr, new_len);
            let base = self.meta(arr).base;
            self.cells[base] = Value::Number(new_len as f64);
        }
    }

    fn grow(&mut self, arr: ArrId, needed: usize) {
        let old = self.meta(arr);
        let old_len = self.length(arr);
        let old_cap = self.capacity(arr);
        let new_cap = needed.max(old_cap * 2).max(4);
        let new_base = self.cells.len();
        self.cells.push(Value::Number(old_len as f64));
        self.cells.push(Value::Number(new_cap as f64));
        for i in 0..new_cap {
            // Only live elements move; stale cells beyond the logical
            // length (left behind by an earlier shrink) must not be
            // resurrected by a reallocation.
            let v = if i < old_len.min(old_cap) {
                self.cells[old.base + 2 + i].clone()
            } else {
                Value::Undefined
            };
            self.cells.push(v);
        }
        self.arrays[arr.0 as usize] = ArrayMeta { base: new_base };
    }

    /// Checked element read: `idx < length` → the element, else
    /// `undefined`. Note the check consults the *header* length; if the
    /// header was corrupted upward, reads past the real storage succeed —
    /// that is the exploit's arbitrary-read primitive.
    pub fn get_elem(&self, arr: ArrId, idx: f64) -> Result<Value, VmError> {
        if !(idx >= 0.0 && is_integral(idx)) {
            return Ok(Value::Undefined);
        }
        let idx = idx as usize;
        if idx < self.length(arr) {
            self.raw_read(self.elem_addr(arr, idx))
        } else {
            Ok(Value::Undefined)
        }
    }

    /// Checked element write. Within length → plain write; within capacity
    /// → write and extend length; beyond capacity → grow then write.
    pub fn set_elem(&mut self, arr: ArrId, idx: f64, value: Value) -> Result<(), VmError> {
        if !(idx >= 0.0 && is_integral(idx)) {
            return Ok(()); // non-index keys are ignored by minijs arrays
        }
        let idx = idx as usize;
        let len = self.length(arr);
        let cap = self.capacity(arr);
        if idx < len {
            let addr = self.elem_addr(arr, idx);
            return self.raw_write(addr, value);
        }
        if idx >= cap {
            self.grow(arr, idx + 1);
        }
        let base = self.meta(arr).base;
        // Cells between the old length and the written index become
        // visible; clear any stale storage a previous shrink left there.
        for i in len..idx {
            self.cells[base + 2 + i] = Value::Undefined;
        }
        self.cells[base + 2 + idx] = value;
        self.cells[base] = Value::Number((idx + 1).max(len) as f64);
        Ok(())
    }

    /// The cell at `addr`, or `None` outside the heap.
    #[inline]
    pub fn cell(&self, addr: usize) -> Option<&Value> {
        self.cells.get(addr)
    }

    /// The cell at `addr` for writing, or `None` outside the heap.
    #[inline]
    pub fn cell_mut(&mut self, addr: usize) -> Option<&mut Value> {
        self.cells.get_mut(addr)
    }

    /// Raw cell read. Only traps when the address escapes the heap
    /// entirely (the "segfault" of the simulation).
    ///
    /// # Errors
    ///
    /// [`VmError::Crash`] when `addr` is outside the heap.
    pub fn raw_read(&self, addr: usize) -> Result<Value, VmError> {
        self.cells
            .get(addr)
            .cloned()
            .ok_or_else(|| VmError::Crash(format!("wild read at cell {addr}")))
    }

    /// Raw cell write. Only traps when the address escapes the heap.
    ///
    /// # Errors
    ///
    /// [`VmError::Crash`] when `addr` is outside the heap.
    pub fn raw_write(&mut self, addr: usize, value: Value) -> Result<(), VmError> {
        match self.cells.get_mut(addr) {
            Some(cell) => {
                *cell = value;
                Ok(())
            }
            None => Err(VmError::Crash(format!("wild write at cell {addr}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new();
        let a = h.alloc_array(3, 3, Value::Number(0.0));
        assert_eq!(h.length(a), 3);
        assert_eq!(h.capacity(a), 3);
        h.set_elem(a, 1.0, Value::Number(7.0)).unwrap();
        assert!(matches!(h.get_elem(a, 1.0).unwrap(), Value::Number(n) if n == 7.0));
        assert!(matches!(h.get_elem(a, 9.0).unwrap(), Value::Undefined));
    }

    #[test]
    fn adjacent_arrays_are_contiguous() {
        let mut h = Heap::new();
        let a = h.alloc_array(4, 4, Value::Number(0.0));
        let b = h.alloc_array(4, 4, Value::Number(0.0));
        // a's cells end exactly where b's header begins.
        assert_eq!(h.elem_addr(a, 4), h.length_addr(b));
    }

    #[test]
    fn oob_raw_write_corrupts_neighbor_length() {
        let mut h = Heap::new();
        let a = h.alloc_array(4, 4, Value::Number(0.0));
        let b = h.alloc_array(4, 4, Value::Number(0.0));
        // Simulates optimized code with an (incorrectly) eliminated bounds
        // check writing a[4] — one past capacity.
        h.raw_write(h.elem_addr(a, 4), Value::Number(1e6)).unwrap();
        assert_eq!(h.length(b), 1_000_000);
        // b can now read far past its storage (arbitrary read primitive).
        assert!(h.get_elem(b, 100.0).is_ok() || h.get_elem(b, 100.0).is_err());
    }

    #[test]
    fn corrupted_length_permits_far_reads_until_heap_end() {
        let mut h = Heap::new();
        let a = h.alloc_array(2, 2, Value::Number(0.0));
        let b = h.alloc_array(2, 2, Value::Number(5.0));
        h.raw_write(h.length_addr(a), Value::Number(1e9)).unwrap();
        // In-heap far read reaches b's element...
        let addr_b0 = h.elem_addr(b, 0) - h.elem_addr(a, 0);
        assert!(matches!(
            h.get_elem(a, addr_b0 as f64).unwrap(),
            Value::Number(n) if n == 5.0
        ));
        // ...and a read past the heap crashes.
        assert!(matches!(h.get_elem(a, 1e8), Err(VmError::Crash(_))));
    }

    #[test]
    fn shrink_keeps_stale_storage() {
        let mut h = Heap::new();
        let a = h.alloc_array(8, 8, Value::Number(9.0));
        h.set_length(a, 2);
        assert_eq!(h.length(a), 2);
        assert_eq!(h.capacity(a), 8);
        // The stale cell is still physically there.
        assert!(matches!(h.raw_read(h.elem_addr(a, 5)).unwrap(), Value::Number(n) if n == 9.0));
        // But a checked read sees undefined.
        assert!(matches!(h.get_elem(a, 5.0).unwrap(), Value::Undefined));
    }

    #[test]
    fn growth_moves_array_and_preserves_elements() {
        let mut h = Heap::new();
        let a = h.alloc_array_from(vec![Value::Number(1.0), Value::Number(2.0)]);
        let old_base = h.length_addr(a);
        h.set_elem(a, 10.0, Value::Number(3.0)).unwrap();
        assert_ne!(h.length_addr(a), old_base);
        assert_eq!(h.length(a), 11);
        assert!(matches!(h.get_elem(a, 0.0).unwrap(), Value::Number(n) if n == 1.0));
        assert!(matches!(h.get_elem(a, 10.0).unwrap(), Value::Number(n) if n == 3.0));
    }

    #[test]
    fn grow_within_capacity_clears_new_cells() {
        let mut h = Heap::new();
        let a = h.alloc_array(8, 8, Value::Number(7.0));
        h.set_length(a, 2);
        h.set_length(a, 5);
        // Cells 2..5 were re-exposed and must read as undefined.
        assert!(matches!(h.get_elem(a, 3.0).unwrap(), Value::Undefined));
    }

    #[test]
    fn wild_accesses_crash() {
        let mut h = Heap::new();
        assert!(h.raw_read(0).is_err());
        assert!(h.raw_write(10, Value::Null).is_err());
    }

    #[test]
    fn negative_and_fractional_indices_are_benign() {
        let mut h = Heap::new();
        let a = h.alloc_array(2, 2, Value::Number(0.0));
        assert!(matches!(h.get_elem(a, -1.0).unwrap(), Value::Undefined));
        assert!(matches!(h.get_elem(a, 0.5).unwrap(), Value::Undefined));
        h.set_elem(a, -3.0, Value::Number(1.0)).unwrap();
        assert_eq!(h.length(a), 2);
    }
}
