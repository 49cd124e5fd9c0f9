//! Trace recording.
//!
//! The engine records two kinds of data for offline analysis:
//!
//! * **Clock samples** — the main logical clock `L_v(t)` of every node on a
//!   periodic Newtonian grid (plus hardware readings), which metrics code
//!   turns into skew curves.
//! * **Rows** — untyped, behavior-emitted records `(t, node, kind, values)`
//!   used for algorithm-internal quantities (round corrections `Δ_v(r)`,
//!   pulse times, trigger decisions, ...). Keeping rows untyped lets the
//!   substrate stay independent of any particular algorithm.

use crate::node::NodeId;
use crate::time::SimTime;

/// One periodic snapshot of every node's clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSample {
    /// Newtonian sample time.
    pub t: SimTime,
    /// Main logical clock `L_v(t)` per node, indexed by node id.
    pub logical: Vec<f64>,
    /// Hardware reading `H_v(t)` per node, indexed by node id.
    pub hardware: Vec<f64>,
}

/// The most values one [`Row`] can carry.
pub const ROW_CAPACITY: usize = 8;

/// A row's numeric payload: at most [`ROW_CAPACITY`] values, stored
/// inline so that emitting a row never touches the heap.
///
/// It derefs to `[f64]`, and its `Debug` output is that of the
/// equivalent `Vec<f64>`, so [`Trace::to_bytes`] does not depend on the
/// payload's representation.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::node::NodeId;
/// use ftgcs_sim::time::SimTime;
/// use ftgcs_sim::trace::Row;
///
/// let row = Row::new(SimTime::ZERO, NodeId(0), "pulse", &[1.0, 2.5]);
/// assert_eq!(&row.values[..], &[1.0, 2.5]);
/// assert_eq!(format!("{:?}", row.values), "[1.0, 2.5]");
/// ```
#[derive(Clone)]
pub struct RowValues {
    len: u8,
    buf: [f64; ROW_CAPACITY],
}

impl RowValues {
    /// Copies `values` inline; `None` if there are more than
    /// [`ROW_CAPACITY`].
    fn from_slice(values: &[f64]) -> Option<Self> {
        let mut buf = [0.0; ROW_CAPACITY];
        buf.get_mut(..values.len())?.copy_from_slice(values);
        Some(RowValues {
            len: values.len() as u8,
            buf,
        })
    }
}

impl std::ops::Deref for RowValues {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.buf[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a RowValues {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for RowValues {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for RowValues {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One behavior-emitted record.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Newtonian emission time.
    pub t: SimTime,
    /// Emitting node.
    pub node: NodeId,
    /// Record kind, e.g. `"pulse"` or `"round"`. Kinds are defined by the
    /// emitting algorithm crate.
    pub kind: &'static str,
    /// Numeric payload; meaning is kind-specific.
    pub values: RowValues,
}

impl Row {
    /// Creates a row carrying a copy of `values`.
    ///
    /// # Panics
    ///
    /// Panics, naming `kind`, if `values` holds more than
    /// [`ROW_CAPACITY`] entries. Rows are emitted by code, so a too-wide
    /// row is a programming error, never an input error.
    #[must_use]
    pub fn new(t: SimTime, node: NodeId, kind: &'static str, values: &[f64]) -> Self {
        let Some(values) = RowValues::from_slice(values) else {
            panic!(
                "row kind `{kind}` emitted {} values; a row holds at most {ROW_CAPACITY}",
                values.len()
            );
        };
        Row {
            t,
            node,
            kind,
            values,
        }
    }
}

/// Collected output of a simulation run.
///
/// # Examples
///
/// ```
/// use ftgcs_sim::trace::Trace;
///
/// let trace = Trace::default();
/// assert!(trace.samples.is_empty());
/// assert!(trace.rows_of_kind("pulse").next().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Periodic clock samples, in time order.
    pub samples: Vec<ClockSample>,
    /// Behavior-emitted rows, in emission order.
    pub rows: Vec<Row>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Iterates over rows of one kind.
    pub fn rows_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Row> + 'a {
        self.rows.iter().filter(move |r| r.kind == kind)
    }

    /// Iterates over rows of one kind emitted by one node.
    pub fn rows_of_node<'a>(
        &'a self,
        kind: &'a str,
        node: NodeId,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        self.rows_of_kind(kind).filter(move |r| r.node == node)
    }

    /// Returns the last sampled logical clock values, if any samples exist.
    #[must_use]
    pub fn final_logical(&self) -> Option<&[f64]> {
        self.samples.last().map(|s| s.logical.as_slice())
    }

    /// Canonical byte serialization of the whole trace: the samples CSV
    /// followed by one `Debug`-formatted line per row.
    ///
    /// This is the format the determinism and scheduler-equivalence
    /// suites compare — two runs are "byte-identical" exactly when
    /// their `to_bytes()` outputs are equal — so it lives here rather
    /// than being redefined per test crate.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_samples_csv(&mut buf)
            .expect("writing to a Vec cannot fail");
        for row in &self.rows {
            buf.extend_from_slice(format!("{row:?}\n").as_bytes());
        }
        buf
    }

    /// Whether two traces serialize to identical bytes
    /// ([`Trace::to_bytes`]).
    ///
    /// This is *the* equivalence the determinism and scheduler
    /// differential suites assert. Relaxed-ordering runs (the parallel
    /// scheduler) merge their per-shard row buffers back into global
    /// `(time, key)` order before the trace is observable, so the same
    /// comparison covers strict and relaxed traces without separate
    /// assertions.
    #[must_use]
    pub fn byte_identical(&self, other: &Trace) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// Writes the clock samples as CSV (`t,node0,node1,...`) to `out`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `out`.
    pub fn write_samples_csv<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        if let Some(first) = self.samples.first() {
            write!(out, "t")?;
            for i in 0..first.logical.len() {
                write!(out, ",n{i}")?;
            }
            writeln!(out)?;
        }
        for s in &self.samples {
            write!(out, "{}", s.t.as_secs())?;
            for v in &s.logical {
                write!(out, ",{v}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            samples: vec![
                ClockSample {
                    t: SimTime::from_secs(0.0),
                    logical: vec![0.0, 0.0],
                    hardware: vec![0.0, 0.0],
                },
                ClockSample {
                    t: SimTime::from_secs(1.0),
                    logical: vec![1.0, 1.1],
                    hardware: vec![1.0, 1.05],
                },
            ],
            rows: vec![
                Row::new(SimTime::from_secs(0.5), NodeId(0), "pulse", &[1.0]),
                Row::new(SimTime::from_secs(0.6), NodeId(1), "round", &[2.0, 3.0]),
            ],
        }
    }

    #[test]
    fn filters_by_kind_and_node() {
        let t = sample_trace();
        assert_eq!(t.rows_of_kind("pulse").count(), 1);
        assert_eq!(t.rows_of_kind("round").count(), 1);
        assert_eq!(t.rows_of_kind("nope").count(), 0);
        assert_eq!(t.rows_of_node("pulse", NodeId(0)).count(), 1);
        assert_eq!(t.rows_of_node("pulse", NodeId(1)).count(), 0);
    }

    #[test]
    fn final_logical_is_last_sample() {
        let t = sample_trace();
        assert_eq!(t.final_logical(), Some(&[1.0, 1.1][..]));
        assert_eq!(Trace::new().final_logical(), None);
    }

    #[test]
    fn csv_output_has_header_and_rows() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_samples_csv(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t,n0,n1");
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with('1'));
    }

    #[test]
    fn row_payload_matches_vec_semantics() {
        let payload = [1.0, -0.0, 2.5, f64::INFINITY, 3.0, 4.0, 5.0, 6.0];
        for len in 0..=ROW_CAPACITY {
            let row = Row::new(SimTime::ZERO, NodeId(0), "k", &payload[..len]);
            let vec = payload[..len].to_vec();
            assert_eq!(format!("{:?}", row.values), format!("{vec:?}"));
            assert_eq!(format!("{:#?}", row.values), format!("{vec:#?}"));
            assert_eq!(&row.values[..], &vec[..]);
            assert_eq!((&row.values).into_iter().count(), len);
        }
    }

    #[test]
    #[should_panic(expected = "row kind `wide` emitted 9 values")]
    fn too_wide_row_names_its_kind() {
        let _ = Row::new(SimTime::ZERO, NodeId(0), "wide", &[0.0; ROW_CAPACITY + 1]);
    }
}
