//! The three-area memory manager of the multifrontal method.
//!
//! Section 2 of the paper: "The algorithm uses three areas of storage in a
//! contiguous memory space, one for the factors, one to stack the
//! contribution blocks, and another one for the current frontal matrix."
//! This module reproduces that discipline and reports the exact usage and
//! peak of each area in *entries* (f64 words), so that the numeric runs
//! can validate the symbolic stack model used by the schedulers.

/// A LIFO stack of contribution blocks. Its usage and peak are kept by
/// [`MemoryAccount`], the ledger the statistics read.
///
/// Blocks must be released in reverse order of allocation, which is
/// exactly the postorder discipline of a sequential multifrontal
/// factorization (children CBs are consumed when the parent assembles).
#[derive(Debug, Default)]
pub struct CbStack {
    blocks: Vec<(u64, Vec<f64>)>, // (id, data)
    next_id: u64,
}

/// Handle of a stacked contribution block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbHandle(u64);

impl CbStack {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a block, returning its handle.
    pub fn push(&mut self, data: Vec<f64>) -> CbHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.blocks.push((id, data));
        CbHandle(id)
    }

    /// Releases the *top* block, which must be `h` — enforcing the LIFO
    /// discipline of the contiguous stack area.
    pub fn pop(&mut self, h: CbHandle) -> Vec<f64> {
        let (id, data) = self.blocks.pop().expect("pop on empty CB stack");
        assert_eq!(id, h.0, "CB stack released out of order (id {} != top {})", h.0, id);
        data
    }

    /// Number of blocks currently stacked.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }
}

/// Accounting for the whole three-area space.
///
/// `factors` only grows; `stack` is the CB stack; the current front is
/// tracked separately so the *active memory* (stack + front), the
/// quantity the paper's tables report, can peak mid-factorization.
#[derive(Debug, Default)]
pub struct MemoryAccount {
    factors: u64,
    front: u64,
    stack_used: u64,
    stack_peak: u64,
    active_peak: u64,
    total_peak: u64,
}

impl MemoryAccount {
    /// Fresh account.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(&mut self) {
        let active = self.stack_used + self.front;
        self.stack_peak = self.stack_peak.max(self.stack_used);
        self.active_peak = self.active_peak.max(active);
        self.total_peak = self.total_peak.max(active + self.factors);
    }

    /// Allocates the current frontal matrix.
    pub fn alloc_front(&mut self, entries: u64) {
        self.front += entries;
        self.bump();
    }

    /// Releases the current frontal matrix (factor part moved to the
    /// factors area, CB part to the stack — call the respective methods).
    pub fn free_front(&mut self, entries: u64) {
        assert!(self.front >= entries, "front underflow");
        self.front -= entries;
    }

    /// Moves `entries` into the factors area.
    pub fn store_factors(&mut self, entries: u64) {
        self.factors += entries;
        self.bump();
    }

    /// Pushes `entries` on the CB stack.
    pub fn push_cb(&mut self, entries: u64) {
        self.stack_used += entries;
        self.bump();
    }

    /// Pops `entries` from the CB stack.
    pub fn pop_cb(&mut self, entries: u64) {
        assert!(self.stack_used >= entries, "CB stack underflow");
        self.stack_used -= entries;
    }

    /// Current CB-stack usage.
    pub fn stack_used(&self) -> u64 {
        self.stack_used
    }

    /// Peak of the CB stack alone.
    pub fn stack_peak(&self) -> u64 {
        self.stack_peak
    }

    /// Peak of the *active memory* (CB stack + current fronts): the
    /// quantity reported in the paper's tables.
    pub fn active_peak(&self) -> u64 {
        self.active_peak
    }

    /// Peak of everything including factors.
    pub fn total_peak(&self) -> u64 {
        self.total_peak
    }

    /// Factor entries stored so far.
    pub fn factors(&self) -> u64 {
        self.factors
    }

    /// Currently allocated front entries.
    pub fn front(&self) -> u64 {
        self.front
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_tracks_usage_and_peak() {
        let mut s = CbStack::new();
        let a = s.push(vec![0.0; 10]);
        let b = s.push(vec![0.0; 5]);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.pop(b).len(), 5);
        let c = s.push(vec![0.0; 2]);
        s.pop(c);
        assert_eq!(s.pop(a).len(), 10);
        assert_eq!(s.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn lifo_violation_panics() {
        let mut s = CbStack::new();
        let a = s.push(vec![0.0; 1]);
        let _b = s.push(vec![0.0; 1]);
        s.pop(a);
    }

    #[test]
    fn account_active_peak_counts_front_plus_stack() {
        let mut m = MemoryAccount::new();
        m.push_cb(100);
        m.alloc_front(50);
        assert_eq!(m.active_peak(), 150);
        m.pop_cb(100); // children assembled
        m.store_factors(30);
        m.push_cb(20); // own CB
        m.free_front(50);
        assert_eq!(m.stack_used(), 20);
        assert_eq!(m.factors(), 30);
        assert_eq!(m.active_peak(), 150);
        assert_eq!(m.total_peak(), 150);
    }

    #[test]
    fn factors_grow_monotonically() {
        let mut m = MemoryAccount::new();
        m.store_factors(5);
        m.store_factors(7);
        assert_eq!(m.factors(), 12);
    }
}
