//! Aggregated hierarchical span tracing.
//!
//! A span names one region of work — the run loop, a pipeline stage,
//! pad generation, the ECP repair ladder, a checkpoint emission — and
//! accumulates its wall-clock time, invocation count, simulated-time
//! range, and write-index range. Spans are *aggregated*: all
//! invocations of the same `(name, parent)` pair fold into one
//! [`SpanNode`], so memory stays O(distinct spans) at any stream
//! length (a 100M-write run produces the same dozen nodes as a
//! 100-write run).
//!
//! The hierarchy is a tree keyed by name: `begin`/`end` maintain an
//! explicit stack for enclosing spans (the run loop), while
//! [`SpanTrace::attach`] folds a pre-measured child under a named
//! parent (how the pipeline's per-stage timings, pad generation, and
//! the repair ladder report in without threading a context handle
//! through every layer).
//!
//! Two exports:
//!
//! - [`SpanTrace::write_chrome_trace`] emits Chrome trace-event JSON
//!   (load in Perfetto or `chrome://tracing`). Because spans are
//!   aggregated, the timeline is a *flame-graph layout*, not a
//!   chronology: children are laid out sequentially inside their
//!   parent at synthetic start offsets, with their **real** total
//!   durations. Widths are meaningful; x-positions are not.
//! - [`SpanTrace::self_times`] computes each node's self time (total
//!   minus the sum of its children), the basis of `deuce report`'s
//!   top-N table. Self times partition the root's wall time exactly:
//!   summing `self_ns` over every node reproduces the root total.
//!
//! Wall-clock times are inherently nondeterministic; span records must
//! never land in a byte-compared section of any export.

use std::io::{self, Write};
use std::time::Instant;

/// One aggregated span: every invocation of `name` under the same
/// parent, folded together.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (e.g. `"run"`, `"stage:scheme"`, `"pad_generation"`).
    pub name: &'static str,
    /// Index of the parent node in [`SpanTrace::nodes`], `None` for a
    /// root.
    pub parent: Option<usize>,
    /// Total wall-clock nanoseconds across all invocations.
    pub wall_ns: u64,
    /// Invocation count.
    pub count: u64,
    /// First and last simulated timestamp (ns) observed while this
    /// span was being recorded, when any write was observed.
    pub sim_ns_range: Option<(f64, f64)>,
    /// First and last 1-based write index observed while this span was
    /// being recorded, when any write was observed.
    pub write_range: Option<(u64, u64)>,
}

/// One row of the self-time table: a span with its exclusive time.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Parent span name, empty for a root.
    pub parent: &'static str,
    /// Total (inclusive) wall nanoseconds.
    pub total_ns: u64,
    /// Exclusive wall nanoseconds: total minus the children's totals.
    pub self_ns: u64,
    /// Invocation count.
    pub count: u64,
    /// Simulated-time range covered, when known.
    pub sim_ns_range: Option<(f64, f64)>,
    /// Write-index range covered, when known.
    pub write_range: Option<(u64, u64)>,
}

/// An open `begin`/`end` frame.
#[derive(Debug, Clone)]
struct Frame {
    node: usize,
    started: Instant,
}

/// The span accumulator one run records into.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    nodes: Vec<SpanNode>,
    stack: Vec<Frame>,
    /// Counted writes observed so far (the 1-based write index).
    write_count: u64,
    /// Last write index / simulated time reported via
    /// [`observe_write`](Self::observe_write); folded into nodes as
    /// spans close or attach.
    cursor: Option<(u64, f64)>,
}

impl SpanTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregated nodes, in first-seen order.
    #[must_use]
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Finds or creates the node for `name` under `parent`.
    fn intern(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if let Some(i) = self
            .nodes
            .iter()
            .position(|n| n.name == name && n.parent == parent)
        {
            return i;
        }
        self.nodes.push(SpanNode {
            name,
            parent,
            wall_ns: 0,
            count: 0,
            sim_ns_range: None,
            write_range: None,
        });
        self.nodes.len() - 1
    }

    /// Finds the most recently created node called `name` (attachment
    /// parents are named, not indexed).
    fn find_named(&self, name: &str) -> Option<usize> {
        self.nodes.iter().rposition(|n| n.name == name)
    }

    fn fold(&mut self, node: usize, wall_ns: u64, count: u64) {
        let cursor = self.cursor;
        let n = &mut self.nodes[node];
        n.wall_ns += wall_ns;
        n.count += count;
        if let Some((write, sim_ns)) = cursor {
            n.write_range = Some(match n.write_range {
                None => (write, write),
                Some((first, _)) => (first, write),
            });
            n.sim_ns_range = Some(match n.sim_ns_range {
                None => (sim_ns, sim_ns),
                Some((first, _)) => (first, sim_ns),
            });
        }
    }

    /// Opens an enclosing span; every subsequent `begin`/`attach`
    /// without an explicit parent nests under it until [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str) {
        let parent = self.stack.last().map(|f| f.node);
        let node = self.intern(name, parent);
        self.stack.push(Frame { node, started: Instant::now() });
    }

    /// Closes the innermost open span, folding its elapsed wall time in.
    pub fn end(&mut self) {
        if let Some(frame) = self.stack.pop() {
            let ns =
                u64::try_from(frame.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.fold(frame.node, ns, 1);
        }
    }

    /// Folds a pre-measured child span in. `parent` names the parent
    /// node (`None` = the innermost open span, or a root if none is
    /// open); a named parent that was never recorded is created as a
    /// root so the measurement is kept rather than dropped.
    pub fn attach(
        &mut self,
        parent: Option<&'static str>,
        name: &'static str,
        wall_ns: u64,
        count: u64,
    ) {
        let parent = match parent {
            Some(p) => Some(self.find_named(p).unwrap_or_else(|| self.intern(p, None))),
            None => self.stack.last().map(|f| f.node),
        };
        let node = self.intern(name, parent);
        self.fold(node, wall_ns, count);
    }

    /// Notes one counted write (with the simulated time after it), so
    /// closing and attaching spans record the range of the run they
    /// covered.
    pub fn observe_write(&mut self, sim_ns: f64) {
        self.write_count += 1;
        self.cursor = Some((self.write_count, sim_ns));
    }

    /// The self-time table: every node with its exclusive time, in
    /// first-seen (roughly topological) order. Self times partition
    /// each root's total exactly.
    #[must_use]
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.nodes.len()];
        for node in &self.nodes {
            if let Some(p) = node.parent {
                child_ns[p] += node.wall_ns;
            }
        }
        self.nodes
            .iter()
            .zip(&child_ns)
            .map(|(node, &children)| SelfTime {
                name: node.name,
                parent: node.parent.map_or("", |p| self.nodes[p].name),
                total_ns: node.wall_ns,
                self_ns: node.wall_ns.saturating_sub(children),
                count: node.count,
                sim_ns_range: node.sim_ns_range,
                write_range: node.write_range,
            })
            .collect()
    }

    /// Writes Chrome trace-event JSON (the `traceEvents` array format
    /// Perfetto and `chrome://tracing` load). Aggregated spans are laid
    /// out flame-graph style: each child starts where its previous
    /// sibling ended, inside its parent, with its real total duration —
    /// widths are real, positions are synthetic.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the writer.
    pub fn write_chrome_trace<W: Write>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        // Synthetic start offsets: children are packed left-to-right
        // inside their parent's start.
        let mut start_ns = vec![0u64; self.nodes.len()];
        let mut next_free: Vec<u64> = vec![0; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let base = match node.parent {
                Some(p) => {
                    let s = start_ns[p] + next_free[p];
                    next_free[p] += node.wall_ns;
                    s
                }
                None => 0,
            };
            start_ns[i] = base;
        }
        let selfs = self.self_times();
        for (i, (node, st)) in self.nodes.iter().zip(&selfs).enumerate() {
            let comma = if i + 1 == self.nodes.len() { "" } else { "," };
            let (wf, wl) = node.write_range.unwrap_or((0, 0));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"count\":{},\
                 \"self_ns\":{},\"write_first\":{},\"write_last\":{}}}}}{}",
                node.name,
                start_ns[i] as f64 / 1000.0,
                node.wall_ns as f64 / 1000.0,
                node.count,
                st.self_ns,
                wf,
                wl,
                comma,
            )?;
        }
        writeln!(out, "]}}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_aggregates_and_partitions_self_time() {
        let mut t = SpanTrace::new();
        t.begin("run");
        t.attach(None, "stage:scheme", 700, 1);
        t.attach(None, "stage:scheme", 300, 1);
        t.attach(None, "stage:wear", 500, 2);
        t.attach(Some("stage:scheme"), "pad_generation", 400, 4);
        for i in 0..42 {
            t.observe_write(150.0 * (i + 1) as f64);
        }
        // A real run's attached children always fit inside it; make this
        // root outlast the 1,500 ns attached to it on any host.
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end();

        let selfs = t.self_times();
        let by_name = |n: &str| selfs.iter().find(|s| s.name == n).unwrap();
        let run = by_name("run");
        let scheme = by_name("stage:scheme");
        assert_eq!(scheme.total_ns, 1000, "invocations aggregate");
        assert_eq!(scheme.count, 2);
        assert_eq!(scheme.self_ns, 600, "pad_generation is nested inside");
        assert_eq!(by_name("pad_generation").parent, "stage:scheme");
        assert_eq!(run.write_range, Some((42, 42)), "run closed after write 42");
        // Self times partition the root exactly.
        let total_self: u64 = selfs.iter().map(|s| s.self_ns).sum();
        assert_eq!(total_self, run.total_ns);
    }

    #[test]
    fn begin_end_measures_and_nests() {
        let mut t = SpanTrace::new();
        t.begin("run");
        t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end();
        t.end();
        let selfs = t.self_times();
        let run = selfs.iter().find(|s| s.name == "run").unwrap();
        let inner = selfs.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, "run");
        assert!(inner.total_ns >= 1_000_000, "slept a millisecond");
        assert!(run.total_ns >= inner.total_ns, "parent encloses child");
    }

    #[test]
    fn attach_to_unknown_parent_creates_a_root() {
        let mut t = SpanTrace::new();
        t.attach(Some("never_opened"), "orphan", 10, 1);
        let selfs = t.self_times();
        assert_eq!(selfs.len(), 2);
        assert_eq!(selfs[0].name, "never_opened");
        assert_eq!(selfs[1].parent, "never_opened");
    }

    #[test]
    fn chrome_trace_is_flat_json_with_real_durations() {
        let mut t = SpanTrace::new();
        t.begin("run");
        t.attach(None, "stage:counter", 250, 1);
        t.attach(None, "stage:scheme", 750, 1);
        t.end();
        let mut out = Vec::new();
        t.write_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"name\":\"stage:scheme\""));
        assert!(text.contains("\"dur\":0.750"), "{text}");
        // Siblings pack sequentially: scheme starts where counter ends.
        assert!(text.contains("\"ts\":0.250,\"dur\":0.750"), "{text}");
        // No trailing comma before the closing bracket.
        assert!(!text.contains(",\n]"));
    }
}
