//! Counter and histogram tables: each layer declares its counters,
//! gauges and histograms **once**, as rows of a
//! [`counter_table!`](crate::counter_table) or
//! [`histogram_table!`](crate::histogram_table) invocation, and every
//! copy of them is generated from those rows:
//!
//! * the struct with one `pub u64` (or [`Histogram`](crate::Histogram))
//!   field per row, documented by its help text (a `///` comment on the
//!   row adds detail below it), attributes passed through;
//! * the element-wise merge `add_rows`;
//! * optionally an **atomic twin** — one `AtomicU64` per live row, its
//!   `load` back into the table struct, and its `fold` of a source
//!   table's rows (`row <- source_field`);
//! * optionally a `feed` of the rows an upstream record declares a field
//!   for (`row => target_field`);
//! * the row visitor [`CounterTable::for_each_row`] — `(row, value)` in
//!   declaration order — which the Prometheus exposition, the trace JSON
//!   and the CLI report iterate instead of naming fields.
//!
//! A new counter therefore costs one row in the table of each layer that
//! holds it, plus its increment site. The two mapping arrows follow the
//! crate graph: a downstream table names its source (`<-`, the executor
//! folding engine counters), an upstream record is named by its source
//! (`=>`, the engine feeding the flight recorder's trace, which lives in
//! this dependency-free crate and cannot name the engine's types).

/// Whether a row only grows or may go down — the Prometheus `# TYPE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total since start (Prometheus `counter`).
    Counter,
    /// Point-in-time level (Prometheus `gauge`).
    Gauge,
}

impl Kind {
    /// The Prometheus type name.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One declared counter or gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// The field name — also the exposition family name (after a
    /// prefix) and the trace JSON key.
    pub name: &'static str,
    /// One-line description (the Prometheus `HELP` text).
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// The layer that owns the row: `"core"`, `"exec"`, `"service"` or
    /// `"trace"`.
    pub layer: &'static str,
}

/// One declared latency histogram (values in nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramRow {
    /// The field name — the exposition family is `<prefix>_<name>_ns`.
    pub name: &'static str,
    /// One-line description (the Prometheus `HELP` text).
    pub help: &'static str,
}

/// The `HELP` text of histogram `name` among `rows`, with a generic
/// fallback for names no table declares (a newer peer's family).
pub fn histogram_help(rows: &[HistogramRow], name: &str) -> &'static str {
    rows.iter()
        .find(|r| r.name == name)
        .map_or("Latency histogram in ns.", |r| r.help)
}

/// A struct declared through [`counter_table!`](crate::counter_table).
pub trait CounterTable {
    /// Every row, in declaration order.
    const ROWS: &'static [Row];

    /// Visit every row with its current value, in [`ROWS`](Self::ROWS)
    /// order. Allocation-free.
    fn for_each_row(&self, f: impl FnMut(&'static Row, u64));
}

/// Declare a counter table: a struct of `pub u64` rows plus everything
/// derived from them (see the [module docs](crate::table)).
///
/// ```
/// stgq_obs::counter_table! {
///     /// Work done by a toy engine.
///     #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
///     pub struct Work in "core" {
///         /// Nodes visited.
///         visited: counter "Nodes visited.",
///     }
///     extra {
///         /// Hand-written fields ride along after the rows.
///         pub stopped: bool,
///     }
/// }
///
/// stgq_obs::counter_table! {
///     #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
///     pub struct Totals in "exec" {
///         /// Requests served.
///         requests: counter "Requests served.",
///         /// Nodes visited, summed over every request.
///         nodes_visited: counter "Nodes visited." <- visited,
///     }
///     sampled {
///         /// Read from elsewhere at snapshot time; no atomic.
///         workers: gauge "Worker threads.",
///     }
///     atomic pub struct LiveTotals from Work;
/// }
///
/// use stgq_obs::CounterTable;
/// let live = LiveTotals::default();
/// live.requests.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
/// live.fold(&Work { visited: 5, stopped: false });
/// let totals = Totals { workers: 2, ..live.load() };
/// let mut seen = Vec::new();
/// totals.for_each_row(|row, v| seen.push((row.name, row.kind.as_str(), v)));
/// assert_eq!(
///     seen,
///     [("requests", "counter", 1), ("nodes_visited", "counter", 5), ("workers", "gauge", 2)]
/// );
/// ```
///
/// Sections after the rows, all optional, in this order:
///
/// * `sampled { rows }` — rows with no atomic in the twin (read from
///   other structures when a snapshot is taken);
/// * `extra { fields }` — hand-written fields appended verbatim after
///   the rows (they take part in no generated code);
/// * `atomic VIS struct Twin [from Source];` — the atomic twin, with a
///   `fold(&Source)` adding every `row <- source_field`;
/// * `feeds Target;` — a `feed(&mut Target)` copying every
///   `row => target_field`.
///
/// The struct is always `pub`. Attributes are captured as raw token
/// trees, the visibility and every row type are emitted as literal
/// tokens (`pub`, `u64`), so derive macros that parse raw tokens see an
/// ordinary struct.
#[macro_export]
macro_rules! counter_table {
    (@kind counter) => { $crate::Kind::Counter };
    (@kind gauge) => { $crate::Kind::Gauge };

    (@twin [] $($rest:tt)*) => {};
    (@twin [$tvis:vis struct $twin:ident $(from $src_ty:ty)?] $name:ident;
        $( $field:ident $(<- $src:ident)? ),*
    ) => {
        #[derive(Debug, Default)]
        $tvis struct $twin {
            $( $tvis $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $twin {
            /// The current value of every live row; sampled rows and
            /// extra fields are left at their defaults.
            #[allow(clippy::needless_update, dead_code)]
            $tvis fn load(&self) -> $name {
                $name {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                    ..::core::default::Default::default()
                }
            }
        }

        $crate::counter_table!(@fold [$($src_ty)?] $tvis $twin; $( $field $(<- $src)? ),*);
    };

    (@fold [] $($rest:tt)*) => {};
    (@fold [$src_ty:ty] $tvis:vis $twin:ident; $( $field:ident $(<- $src:ident)? ),*) => {
        impl $twin {
            /// Add one source record's rows into the twin (every
            /// `row <- source_field`).
            $tvis fn fold(&self, source: &$src_ty) {
                $($(
                    self.$field.fetch_add(source.$src, ::std::sync::atomic::Ordering::Relaxed);
                )?)*
            }
        }
    };

    (@feed [] $($rest:tt)*) => {};
    (@feed [$dst_ty:ty] $name:ident; $( $field:ident $(=> $dst:ident)? ),*) => {
        impl $name {
            /// Copy every `row => target_field` into `into`.
            pub fn feed(&self, into: &mut $dst_ty) {
                $($( into.$dst = self.$field; )?)*
            }
        }
    };

    (
        $(#[$($sattr:tt)*])*
        pub struct $name:ident in $layer:literal {
            $(
                $(#[$($fattr:tt)*])*
                $field:ident : $kind:ident $help:literal $(<- $src:ident)? $(=> $dst:ident)?
            ),* $(,)?
        }
        $( sampled {
            $(
                $(#[$($gattr:tt)*])*
                $gfield:ident : $gkind:ident $ghelp:literal
            ),* $(,)?
        } )?
        $( extra { $($extra:tt)* } )?
        $( atomic $tvis:vis struct $twin:ident $(from $src_ty:ty)? ; )?
        $( feeds $dst_ty:ty ; )?
    ) => {
        $(#[$($sattr)*])*
        pub struct $name {
            $( #[doc = $help] #[doc = ""] $(#[$($fattr)*])* pub $field: u64, )*
            $($( #[doc = $ghelp] #[doc = ""] $(#[$($gattr)*])* pub $gfield: u64, )*)?
            $($($extra)*)?
        }

        impl $name {
            /// Add `other`'s rows into this one, element-wise.
            pub fn add_rows(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
                $($( self.$gfield += other.$gfield; )*)?
            }
        }

        impl $crate::CounterTable for $name {
            const ROWS: &'static [$crate::Row] = &[
                $( $crate::Row {
                    name: stringify!($field),
                    help: $help,
                    kind: $crate::counter_table!(@kind $kind),
                    layer: $layer,
                }, )*
                $($( $crate::Row {
                    name: stringify!($gfield),
                    help: $ghelp,
                    kind: $crate::counter_table!(@kind $gkind),
                    layer: $layer,
                }, )*)?
            ];

            fn for_each_row(&self, mut f: impl FnMut(&'static $crate::Row, u64)) {
                let values = [ $( self.$field, )* $($( self.$gfield, )*)? ];
                for (row, value) in Self::ROWS.iter().zip(values) {
                    f(row, value);
                }
            }
        }

        $crate::counter_table!(@twin [$( $tvis struct $twin $(from $src_ty)? )?] $name;
            $( $field $(<- $src)? ),*);
        $crate::counter_table!(@feed [$($dst_ty)?] $name; $( $field $(=> $dst)? ),*);
    };
}

/// Declare a histogram table: a struct of `pub`
/// [`Histogram`](crate::Histogram) rows (plus optional extra fields),
/// its [`HistogramRow`] list, `histograms()` snapshots keyed by row name,
/// and a private `from_extras(..)` constructor taking the extra fields in
/// order.
///
/// ```
/// stgq_obs::histogram_table! {
///     #[derive(Debug)]
///     pub struct Spans {
///         /// Whole request.
///         total: "Request latency in ns.",
///     }
///     extra {
///         /// Requests seen.
///         pub label: &'static str,
///     }
/// }
/// let spans = Spans::from_extras("node-0");
/// spans.total.record_ns(42);
/// assert_eq!(Spans::HISTOGRAMS[0].name, "total");
/// assert_eq!(spans.histograms()[0].1.count, 1);
/// ```
#[macro_export]
macro_rules! histogram_table {
    (
        $(#[$($sattr:tt)*])*
        $vis:vis struct $name:ident {
            $( $(#[$($fattr:tt)*])* $field:ident : $help:literal ),* $(,)?
        }
        $( extra {
            $( $(#[$($xattr:tt)*])* $xvis:vis $x:ident : $xty:ty ),* $(,)?
        } )?
    ) => {
        $(#[$($sattr)*])*
        $vis struct $name {
            $( #[doc = $help] #[doc = ""] $(#[$($fattr)*])* pub $field: $crate::Histogram, )*
            $($( $(#[$($xattr)*])* $xvis $x: $xty, )*)?
        }

        impl $name {
            /// Every histogram row, in declaration (exposition) order.
            pub const HISTOGRAMS: &'static [$crate::HistogramRow] = &[
                $( $crate::HistogramRow { name: stringify!($field), help: $help }, )*
            ];

            /// Empty histograms plus the given extra fields.
            #[allow(dead_code)]
            fn from_extras($($( $x: $xty ),*)?) -> Self {
                $name {
                    $( $field: $crate::Histogram::new(), )*
                    $($( $x, )*)?
                }
            }

            /// Snapshots of every histogram, keyed by row name, in
            /// [`HISTOGRAMS`](Self::HISTOGRAMS) order.
            pub fn histograms(&self) -> Vec<(&'static str, $crate::HistogramSnapshot)> {
                vec![ $( (stringify!($field), self.$field.snapshot()), )* ]
            }
        }
    };
}
