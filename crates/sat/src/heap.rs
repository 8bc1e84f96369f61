//! Indexed binary max-heap over variable activities (VSIDS order).

/// A binary max-heap of variable indices keyed by an external activity
/// array. Supports O(log n) insert/pop and O(log n) activity-increase
/// notification, which is all CDCL branching needs.
#[derive(Debug, Default, Clone)]
pub(crate) struct ActivityHeap {
    heap: Vec<u32>,
    /// `pos[v]` is the index of `v` in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl ActivityHeap {
    pub fn new() -> ActivityHeap {
        ActivityHeap::default()
    }

    /// Grows the position table to cover `n` variables.
    pub fn grow_to(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, ABSENT);
        }
    }

    pub fn contains(&self, v: u32) -> bool {
        self.pos.get(v as usize).is_some_and(|&p| p != ABSENT)
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn insert(&mut self, v: u32, act: &[f64]) {
        self.grow_to(v as usize + 1);
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    /// Appends the variables of `vars`, none of them queued yet and all at
    /// activity 0.0. That is the floor of the key range, so each
    /// [`ActivityHeap::insert`] would stop its sift-up at once: appending
    /// them in order leaves the heap exactly as one insert per variable.
    pub fn append_cold(&mut self, vars: std::ops::Range<u32>) {
        self.grow_to(vars.end as usize);
        for v in vars {
            debug_assert!(!self.contains(v));
            self.pos[v as usize] = self.heap.len();
            self.heap.push(v);
        }
    }

    pub fn pop_max(&mut self, act: &[f64]) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    /// Restores the heap invariant after arbitrary activity rewrites
    /// (e.g. a rung-advance activity transfer): O(n) bottom-up heapify
    /// over the queued variables.
    pub fn rebuild(&mut self, act: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }

    /// Restores heap order after `act[v]` increased.
    pub fn bumped(&mut self, v: u32, act: &[f64]) {
        if let Some(&p) = self.pos.get(v as usize) {
            if p != ABSENT {
                self.sift_up(p, act);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a;
        self.pos[self.heap[b] as usize] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let act = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = ActivityHeap::new();
        for v in 0..4 {
            h.insert(v, &act);
        }
        assert_eq!(h.pop_max(&act), Some(1));
        assert_eq!(h.pop_max(&act), Some(3));
        assert_eq!(h.pop_max(&act), Some(2));
        assert_eq!(h.pop_max(&act), Some(0));
        assert_eq!(h.pop_max(&act), None);
    }

    #[test]
    fn bump_reorders() {
        let mut act = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for v in 0..3 {
            h.insert(v, &act);
        }
        act[0] = 10.0;
        h.bumped(0, &act);
        assert_eq!(h.pop_max(&act), Some(0));
    }

    #[test]
    fn duplicate_insert_ignored() {
        let act = vec![1.0];
        let mut h = ActivityHeap::new();
        h.insert(0, &act);
        h.insert(0, &act);
        assert_eq!(h.pop_max(&act), Some(0));
        assert_eq!(h.pop_max(&act), None);
    }

    #[test]
    fn contains_tracks_membership() {
        let act = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        assert!(!h.contains(0));
        h.insert(0, &act);
        assert!(h.contains(0));
        h.pop_max(&act);
        assert!(!h.contains(0));
        assert!(h.is_empty());
    }
}
