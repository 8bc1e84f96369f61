//! Effort-counter tables: each stats struct declares its `u64` counters
//! once, and everything downstream — deltas, folds, the persist codec,
//! the wire encoding, trace args, the CLI's statistics rows — walks the
//! declaration instead of naming fields.
//!
//! [`counters!`](crate::counters!) declares a struct whose counters
//! carry a [`CounterKind`] each and implements [`Counters`] for it. The
//! table order is **append-only**: persisted stats blocks store the
//! values positionally (count-prefixed, so a reader that knows fewer or
//! more counters than the writer still parses every record), which means
//! a new counter goes at the end and an old one is never removed or
//! moved. Golden tests next to each table pin the order.

/// How a counter behaves when two readings are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotone event count. A delta subtracts the earlier reading; a
    /// fold adds.
    Sum,
    /// Current level of something that also falls (arena words, learnt
    /// clauses kept). A delta keeps the later reading; a fold keeps the
    /// latest one folded in.
    Gauge,
    /// High-water mark. A delta keeps the later reading; a fold keeps
    /// the maximum.
    Peak,
}

impl CounterKind {
    /// Combines an accumulated value with one more reading.
    pub fn fold(self, acc: u64, value: u64) -> u64 {
        match self {
            CounterKind::Sum => acc + value,
            CounterKind::Gauge => value,
            CounterKind::Peak => acc.max(value),
        }
    }
}

/// A struct whose `u64` counters are declared as a table (see the module
/// docs). Implemented by [`counters!`](crate::counters!), never by hand.
pub trait Counters: Clone {
    /// `(name, kind)` per counter, in declaration order. Append-only.
    const TABLE: &'static [(&'static str, CounterKind)];

    /// The counter values, in table order.
    fn values(&self) -> impl Iterator<Item = u64>;

    /// The counter fields themselves, in table order.
    fn slots(&mut self) -> impl Iterator<Item = &mut u64>;

    /// `(name, kind, value)` per counter, in table order.
    fn fields(&self) -> impl Iterator<Item = (&'static str, CounterKind, u64)> {
        Self::TABLE
            .iter()
            .zip(self.values())
            .map(|(&(name, kind), value)| (name, kind, value))
    }

    /// The effort between two readings of one live source: sums are
    /// subtracted, gauges and peaks (and every field outside the table)
    /// keep `self`'s reading.
    fn delta_since(&self, before: &Self) -> Self {
        let mut delta = self.clone();
        for ((slot, earlier), &(_, kind)) in delta.slots().zip(before.values()).zip(Self::TABLE) {
            if kind == CounterKind::Sum {
                *slot -= earlier;
            }
        }
        delta
    }

    /// Folds `fields` — another table's [`Counters::fields`], possibly
    /// filtered — into the counters of the same name here, by *this*
    /// table's kind. Names this table does not declare are skipped.
    fn absorb(&mut self, fields: impl Iterator<Item = (&'static str, CounterKind, u64)>) {
        for (name, _, value) in fields {
            if let Some(i) = index_of(Self::TABLE, name) {
                let slot = self.slots().nth(i).expect("index_of is in range");
                *slot = Self::TABLE[i].1.fold(*slot, value);
            }
        }
    }
}

/// The position of counter `name` in `table`; usable in `const` items,
/// so a misspelt name fails the build instead of a lookup at run time.
pub const fn index_of(table: &[(&str, CounterKind)], name: &str) -> Option<usize> {
    let name = name.as_bytes();
    let mut i = 0;
    while i < table.len() {
        let candidate = table[i].0.as_bytes();
        if candidate.len() == name.len() {
            let mut k = 0;
            while k < name.len() && candidate[k] == name[k] {
                k += 1;
            }
            if k == name.len() {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Declares a stats struct and its counter table in one place.
///
/// The first block is an ordinary struct body for the fields that are
/// not `u64` counters (it may be empty); the `counters` block lists the
/// counters as `name: kind` with `kind` one of `sum`, `gauge`, `peak`
/// (see [`CounterKind`]). Every counter becomes a `pub name: u64` field
/// carrying its doc comment, and the struct implements [`Counters`].
///
/// ```
/// use satmapit_sat::{counters, CounterKind, Counters};
///
/// counters! {
///     /// Work done by a toy component.
///     #[derive(Debug, Clone, Default, PartialEq)]
///     pub struct ToyStats {
///         /// Not a counter: carried through untouched.
///         pub label: &'static str,
///     }
///     counters {
///         /// Steps taken.
///         steps: sum,
///         /// Deepest recursion seen.
///         depth: peak,
///     }
/// }
///
/// let before = ToyStats { label: "a", steps: 3, depth: 7 };
/// let now = ToyStats { label: "a", steps: 10, depth: 9 };
/// assert_eq!(now.delta_since(&before), ToyStats { label: "a", steps: 7, depth: 9 });
/// assert_eq!(ToyStats::TABLE[1], ("depth", CounterKind::Peak));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$pmeta:meta])* $pvis:vis $plain:ident : $pty:ty ),* $(,)?
        }
        counters {
            $( $(#[$cmeta:meta])* $counter:ident : $kind:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$pmeta])* $pvis $plain : $pty, )*
            $( $(#[$cmeta])* pub $counter : u64, )+
        }

        impl $crate::Counters for $name {
            const TABLE: &'static [(&'static str, $crate::CounterKind)] =
                &[ $( (stringify!($counter), $crate::counters!(@kind $kind)) ),+ ];

            fn values(&self) -> impl Iterator<Item = u64> {
                [ $( self.$counter ),+ ].into_iter()
            }

            fn slots(&mut self) -> impl Iterator<Item = &mut u64> {
                [ $( &mut self.$counter ),+ ].into_iter()
            }
        }
    };
    (@kind sum) => { $crate::CounterKind::Sum };
    (@kind gauge) => { $crate::CounterKind::Gauge };
    (@kind peak) => { $crate::CounterKind::Peak };
}
