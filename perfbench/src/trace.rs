//! The traced run's instrumentation, all of it in the benchmark: spans
//! recorded around calls into each layer, kept in memory, reduced to
//! self times at the end of the run and written out as TSV.

use fairrec_core::Group;
use fairrec_engine::{GroupRecommendation, RecommendationObserver};
use fairrec_metrics::FairnessMonitor;
use fairrec_types::{RatingsRead, UserId};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch; an
/// open span has `end == 0`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// The open span that calls made on this thread descend from.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under this thread's current span.
    pub fn begin(&self, name: &'static str, request: Option<u64>) -> usize {
        let parent = CURRENT.with(Cell::get);
        let start = self.now();
        let mut spans = self.spans.lock().expect("span log lock");
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) -> u64 {
        let end = self.now();
        self.spans.lock().expect("span log lock")[id].end = end;
        end
    }

    /// Runs `f` inside a span that calls made by `f` on this thread
    /// descend from.
    pub fn scope<T>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let outer = CURRENT.with(|c| c.replace(Some(id)));
        let out = f();
        CURRENT.with(|c| c.set(outer));
        self.end(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&id) {
                kids.sort_unstable();
                let mut reach = s.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Writes one line per span: id, name, request, parent, start, end and
/// self time (ns).
pub fn dump(path: &Path, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns")?;
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{}\t{}\t{self_ns}",
            s.name,
            opt(s.request.map(|r| r.to_string())),
            opt(s.parent.map(|p| p.to_string())),
            s.start,
            s.end
        )?;
    }
    out.flush()
}

/// The monitor behind a timing wrapper: records a `metrics.observe` span
/// per package and when the observer saw it, keyed by request.
pub struct TimedObserver {
    pub monitor: Arc<FairnessMonitor>,
    pub tracer: Arc<Tracer>,
    /// `(members, z)` → request id; requests never repeat within a run.
    pub requests: Mutex<HashMap<(Vec<UserId>, usize), u64>>,
    /// Request id → when the observer finished with its package.
    pub observed_at: Mutex<HashMap<u64, u64>>,
}

impl TimedObserver {
    pub fn new(monitor: Arc<FairnessMonitor>, tracer: Arc<Tracer>) -> Self {
        Self {
            monitor,
            tracer,
            requests: Mutex::new(HashMap::new()),
            observed_at: Mutex::new(HashMap::new()),
        }
    }
}

impl RecommendationObserver for TimedObserver {
    fn observe_recommendation(
        &self,
        group: &Group,
        z: usize,
        recommendation: &GroupRecommendation,
        reads: &dyn RatingsRead,
    ) {
        let request = self
            .requests
            .lock()
            .expect("request map lock")
            .get(&(group.members().to_vec(), z))
            .copied();
        let id = self.tracer.begin("metrics.observe", request);
        self.monitor
            .observe_recommendation(group, z, recommendation, reads);
        let end = self.tracer.end(id);
        if let Some(request) = request {
            self.observed_at
                .lock()
                .expect("observation map lock")
                .insert(request, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),
            span(60, 70, Some(0)),
            span(25, 28, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 17, 30, 10, 3]);
    }

    #[test]
    fn scopes_nest_on_one_thread() {
        let tracer = Tracer::new();
        tracer.scope("outer", Some(1), || {
            tracer.scope("inner", Some(1), || {});
        });
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end >= spans[1].end);
    }
}
