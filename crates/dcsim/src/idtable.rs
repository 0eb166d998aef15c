//! Id-indexed entity tables.
//!
//! Many simulator entities carry small integer ids that are *dense*: VM
//! ids come from a counter that is never reused, and addresses come from
//! free-list pools that reuse released addresses before issuing new ones,
//! so the live addresses never outgrow the peak live count. A table
//! keyed by such an id is a `Vec<Option<V>>` indexed by the id — one
//! bounds-checked load per lookup instead of a tree walk.
//!
//! Iteration visits present slots in index order. For id types whose
//! `Ord` is the order of their integer (every implementor in the
//! workspace), that is exactly the key order a `BTreeMap` iterates in, so
//! swapping a tree for an [`IdTable`] keeps every fold over the table in
//! the same sequence.

use std::fmt;
use std::marker::PhantomData;

/// An id that indexes a dense table.
pub trait DenseId: Copy {
    /// The slot this id occupies.
    fn index(self) -> usize;
    /// The id occupying slot `i`.
    fn from_index(i: usize) -> Self;
}

/// A map from a [`DenseId`] to `V`, stored as a vector of optional slots.
///
/// The vector grows to one past the largest id ever inserted and never
/// shrinks, so its memory is bounded by the id space in use, not by the
/// live entry count.
///
/// ```
/// use dcsim::idtable::{DenseId, IdTable};
///
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// struct Id(u32);
/// impl DenseId for Id {
///     fn index(self) -> usize { self.0 as usize }
///     fn from_index(i: usize) -> Self { Id(i as u32) }
/// }
///
/// let mut t = IdTable::new();
/// t.insert(Id(3), "c");
/// t.insert(Id(1), "a");
/// assert_eq!(t.get(Id(3)), Some(&"c"));
/// assert_eq!(t.get(Id(99)), None);
/// assert_eq!(t.iter().collect::<Vec<_>>(), vec![(Id(1), &"a"), (Id(3), &"c")]);
/// assert_eq!(t.remove(Id(1)), Some("a"));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Clone)]
pub struct IdTable<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<fn(K) -> K>,
}

impl<K, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: DenseId, V> IdTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entry is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the largest slot ever occupied.
    pub fn bound(&self) -> usize {
        self.slots.len()
    }

    /// The entry for `key`, if present. Ids past the end are absent.
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.index())?.as_ref()
    }

    /// Mutable access to the entry for `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.index())?.as_mut()
    }

    /// Insert or replace the entry for `key`, returning the old value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The entry for `key`, inserting `value` first if it is absent.
    pub fn get_or_insert(&mut self, key: K, value: V) -> &mut V {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert(value)
    }

    /// Remove and return the entry for `key`, if present.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let old = self.slots.get_mut(key.index())?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Remove every entry, keeping the slot vector's allocation and
    /// bound.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
    }

    /// Present entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((K::from_index(i), v.as_ref()?)))
    }

    /// Present values in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Present entries in id order, with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, v)| Some((K::from_index(i), v.as_mut()?)))
    }
}

impl<K: DenseId + fmt::Debug, V: fmt::Debug> fmt::Debug for IdTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Id(u32);
    impl DenseId for Id {
        fn index(self) -> usize {
            self.0 as usize
        }
        fn from_index(i: usize) -> Self {
            Id(i as u32)
        }
    }

    #[test]
    fn out_of_range_ids_are_absent() {
        let mut t: IdTable<Id, u8> = IdTable::new();
        assert_eq!(t.get(Id(u32::MAX)), None);
        assert_eq!(t.get_mut(Id(7)), None);
        assert_eq!(t.remove(Id(7)), None);
        t.insert(Id(2), 1);
        assert_eq!(t.bound(), 3);
        assert_eq!(t.get(Id(3)), None);
        assert_eq!(t.remove(Id(u32::MAX)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replace_keeps_len_and_remove_keeps_bound() {
        let mut t: IdTable<Id, u8> = IdTable::new();
        assert_eq!(t.insert(Id(4), 1), None);
        assert_eq!(t.insert(Id(4), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(Id(4)), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.bound(), 5);
        assert_eq!(format!("{t:?}"), "{}");
    }

    proptest! {
        /// Any insert/remove/mutate sequence leaves the table equal to a
        /// `BTreeMap` given the same operations: lookups, length and
        /// iteration order.
        #[test]
        fn matches_btreemap(ops in proptest::collection::vec((0u8..6, 0u32..64, any::<u16>()), 0..200)) {
            let mut t: IdTable<Id, u16> = IdTable::new();
            let mut m: BTreeMap<Id, u16> = BTreeMap::new();
            for (op, k, v) in ops {
                let k = Id(k);
                match op {
                    0 => prop_assert_eq!(t.insert(k, v), m.insert(k, v)),
                    1 => prop_assert_eq!(t.remove(k), m.remove(&k)),
                    2 => {
                        let x = t.get_or_insert(k, v);
                        *x = x.wrapping_add(1);
                        let y = m.entry(k).or_insert(v);
                        *y = y.wrapping_add(1);
                        prop_assert_eq!(*x, *y);
                    }
                    3 if v % 8 == 0 => {
                        let bound = t.bound();
                        t.clear();
                        m.clear();
                        prop_assert_eq!(t.bound(), bound);
                    }
                    _ => {
                        if let Some(x) = t.get_mut(k) {
                            *x = x.wrapping_add(v);
                        }
                        if let Some(x) = m.get_mut(&k) {
                            *x = x.wrapping_add(v);
                        }
                    }
                }
                prop_assert_eq!(t.len(), m.len());
                for i in 0..70 {
                    prop_assert_eq!(t.get(Id(i)), m.get(&Id(i)));
                }
                let got: Vec<(Id, u16)> = t.iter().map(|(k, &v)| (k, v)).collect();
                let want: Vec<(Id, u16)> = m.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(got, want);
                let vals: Vec<u16> = t.values().copied().collect();
                let want_vals: Vec<u16> = m.values().copied().collect();
                prop_assert_eq!(vals, want_vals);
            }
        }
    }
}
