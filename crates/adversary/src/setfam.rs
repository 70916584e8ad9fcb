//! Sparse families of disjoint wire sets — the `M_0, …, M_{t(l)-1}`
//! collections maintained by Lemma 4.1.
//!
//! `t(l) = k³ + l·k²` is huge compared to the number of *nonempty* sets,
//! so the family is stored sparsely: only nonempty sets are materialized.
//! The Lemma 4.1 engine keeps its sets in the refined pattern while it
//! runs and builds a family once, at the end of a run.

use snet_core::element::WireId;
use std::collections::BTreeMap;

/// A sparse family of disjoint wire sets indexed by `0..capacity`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetFamily {
    sets: BTreeMap<u32, Vec<WireId>>,
}

impl SetFamily {
    /// The family of the given `(index, wire)` memberships, each set
    /// sorted.
    pub fn from_members(members: impl IntoIterator<Item = (u32, WireId)>) -> Self {
        let mut sets: BTreeMap<u32, Vec<WireId>> = BTreeMap::new();
        for (i, w) in members {
            sets.entry(i).or_default().push(w);
        }
        for wires in sets.values_mut() {
            wires.sort_unstable();
        }
        SetFamily { sets }
    }

    /// The set at `index` (empty slice if absent).
    pub fn get(&self, index: u32) -> &[WireId] {
        self.sets.get(&index).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of nonempty sets.
    pub fn nonempty_count(&self) -> usize {
        self.sets.len()
    }

    /// Total number of wires across all sets (the mass `|B|`).
    pub fn mass(&self) -> usize {
        self.sets.values().map(Vec::len).sum()
    }

    /// Largest set as `(index, wires)`, ties broken towards the smallest
    /// index; `None` if the family is empty.
    pub fn largest(&self) -> Option<(u32, &[WireId])> {
        self.sets
            .iter()
            .max_by(|(ia, a), (ib, b)| a.len().cmp(&b.len()).then(ib.cmp(ia)))
            .map(|(&i, v)| (i, v.as_slice()))
    }

    /// Iterates `(index, wires)` in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[WireId])> {
        self.sets.iter().map(|(&i, v)| (i, v.as_slice()))
    }

    /// Checks pairwise disjointness (debug validation).
    pub fn is_disjoint(&self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        for wires in self.sets.values() {
            for &w in wires {
                if !seen.insert(w) {
                    return false;
                }
            }
        }
        true
    }
}

/// Incremental updates, used by the reference engine of the differential
/// tests (`crate::reference`).
#[cfg(test)]
impl SetFamily {
    /// The empty family.
    pub(crate) fn new() -> Self {
        SetFamily { sets: BTreeMap::new() }
    }

    /// A family with a single set at `index`.
    pub(crate) fn singleton(index: u32, wires: Vec<WireId>) -> Self {
        let mut fam = SetFamily::new();
        fam.put(index, wires);
        fam
    }

    /// Inserts/overwrites the set at `index`; empty sets are dropped.
    pub(crate) fn put(&mut self, index: u32, wires: Vec<WireId>) {
        if wires.is_empty() {
            self.sets.remove(&index);
        } else {
            self.sets.insert(index, wires);
        }
    }

    /// Removes and returns the set at `index`.
    pub(crate) fn take(&mut self, index: u32) -> Vec<WireId> {
        self.sets.remove(&index).unwrap_or_default()
    }

    /// Greatest occupied index, if any.
    pub(crate) fn max_index(&self) -> Option<u32> {
        self.sets.keys().next_back().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_mass() {
        let fam = SetFamily::singleton(0, vec![3, 5, 7]);
        assert_eq!(fam.mass(), 3);
        assert_eq!(fam.nonempty_count(), 1);
        assert_eq!(fam.get(0), &[3, 5, 7]);
        assert_eq!(fam.get(1), &[] as &[u32]);
    }

    #[test]
    fn empty_singleton_is_empty() {
        let fam = SetFamily::singleton(0, vec![]);
        assert_eq!(fam.nonempty_count(), 0);
        assert!(fam.largest().is_none());
        assert!(fam.max_index().is_none());
    }

    #[test]
    fn put_drop_empty() {
        let mut fam = SetFamily::new();
        fam.put(4, vec![1]);
        fam.put(4, vec![]);
        assert_eq!(fam.nonempty_count(), 0);
    }

    #[test]
    fn largest_prefers_smallest_index_on_tie() {
        let mut fam = SetFamily::new();
        fam.put(7, vec![1, 2]);
        fam.put(3, vec![8, 9]);
        fam.put(5, vec![4]);
        let (i, wires) = fam.largest().unwrap();
        assert_eq!(i, 3);
        assert_eq!(wires, &[8, 9]);
    }

    #[test]
    fn from_members_sorts_each_set() {
        let fam = SetFamily::from_members([(9, 4), (2, 3), (9, 1), (2, 0)]);
        assert_eq!(fam.iter().collect::<Vec<_>>(), vec![(2, &[0, 3][..]), (9, &[1, 4][..])]);
        assert_eq!(fam.mass(), 4);
    }

    #[test]
    fn disjointness() {
        let mut fam = SetFamily::new();
        fam.put(0, vec![0, 1]);
        fam.put(1, vec![2]);
        assert!(fam.is_disjoint());
        fam.put(2, vec![1]);
        assert!(!fam.is_disjoint());
    }

    #[test]
    fn take_removes() {
        let mut fam = SetFamily::new();
        fam.put(1, vec![5]);
        assert_eq!(fam.take(1), vec![5]);
        assert_eq!(fam.take(1), Vec::<u32>::new());
    }
}
