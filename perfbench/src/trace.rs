//! In-memory spans recorded around calls into each layer's public entry
//! points, plus the per-layer self-time table built from them.
//!
//! A span is `(layer, entry, start, end, parent)`. Spans nest on the
//! thread that opened them; a span opened on another thread on behalf
//! of an outer call (server dispatch during `replay`, for instance)
//! names its parent explicitly. A layer's self time is the sum of its
//! spans' durations minus the part of each span its direct children
//! cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The layers on the measured paths, in table order.
pub const LAYERS: &[&str] = &[
    "workload",
    "core",
    "tables",
    "store",
    "live",
    "serve",
    "sniffer",
    "net.mirror",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub entry: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open span ids on this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost open span on this
    /// thread unless `parent` names one.
    fn open(&self, layer: &'static str, entry: &'static str, parent: Option<usize>) -> usize {
        let parent = parent.or_else(|| STACK.with(|s| s.borrow().last().copied()));
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            layer,
            entry,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id].end_ns = end;
    }

    /// Runs `f` inside a span nested under this thread's open span.
    pub fn time<T>(&self, layer: &'static str, entry: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, entry, None);
        STACK.with(|s| s.borrow_mut().push(id));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        self.close(id);
        out
    }

    /// Runs `f` inside a span whose parent is `parent` — a span opened
    /// on another thread that this call serves.
    pub fn time_under<T>(
        &self,
        parent: usize,
        layer: &'static str,
        entry: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, entry, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span that stays open until [`Tracer::end`] — for a call
    /// whose children run on other threads and must name it.
    pub fn begin(&self, layer: &'static str, entry: &'static str) -> usize {
        let id = self.open(layer, entry, None);
        STACK.with(|s| s.borrow_mut().push(id));
        id
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&self, id: usize) {
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(id));
        });
        self.close(id);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Per-span self time: duration minus the union of its direct
/// children's intervals (concurrent children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self seconds and call counts summed per `(layer, entry)`.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    pub entries: BTreeMap<(&'static str, &'static str), (u64, f64)>,
}

impl Profile {
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut entries = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let e = entries.entry((s.layer, s.entry)).or_insert((0u64, 0.0f64));
            e.0 += 1;
            e.1 += self_ns as f64 / 1e9;
        }
        Profile { entries }
    }

    /// Self seconds of one entry point.
    pub fn secs(&self, layer: &str, entry: &str) -> f64 {
        self.entries
            .iter()
            .filter(|((l, e), _)| *l == layer && *e == entry)
            .map(|(_, (_, s))| s)
            .sum()
    }

    /// Calls of one entry point.
    pub fn calls(&self, layer: &str, entry: &str) -> u64 {
        self.entries
            .iter()
            .filter(|((l, e), _)| *l == layer && *e == entry)
            .map(|(_, (c, _))| c)
            .sum()
    }

    /// `(calls, self seconds)` of a whole layer.
    pub fn layer(&self, layer: &str) -> (u64, f64) {
        self.entries
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .fold((0, 0.0), |(c, s), (_, (c2, s2))| (c + c2, s + s2))
    }

    /// Sum of every layer's self time.
    pub fn total_secs(&self) -> f64 {
        self.entries.values().map(|(_, s)| s).sum()
    }
}

/// The per-layer table: layer, calls, busy seconds, share of `wall`.
pub fn layer_table(title: &str, profile: &Profile, wall: f64) -> String {
    let mut out = format!(
        "{title}\n  {:<12} {:>8} {:>10} {:>8}\n",
        "layer", "calls", "busy_s", "%wall"
    );
    for layer in LAYERS {
        let (calls, busy) = profile.layer(layer);
        out.push_str(&format!(
            "  {layer:<12} {calls:>8} {busy:>10.4} {:>8.2}\n",
            100.0 * busy / wall.max(1e-12)
        ));
    }
    out.push_str(&format!(
        "  {:<12} {:>8} {:>10.4} {:>8.2}   (coverage)\n",
        "all layers",
        "",
        profile.total_secs(),
        100.0 * profile.total_secs() / wall.max(1e-12)
    ));
    out
}

/// Writes spans as JSON lines, one span per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            f,
            "{{\"id\":{i},\"layer\":\"{}\",\"entry\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.layer,
            s.entry,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string())
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "core",
            entry: "x",
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            span(90, 120, Some(0)),
        ];
        // Children cover [10, 50) and [90, 100): 50 of 100.
        assert_eq!(self_times(&spans), vec![50, 30, 20, 30]);
    }
}
