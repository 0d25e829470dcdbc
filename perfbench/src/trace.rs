//! Spans of the traced run, recorded by the benchmark's own code around
//! its calls into each layer, kept in memory and written out at the end.
//!
//! The traced run is one thread, so the open spans are a stack: a span's
//! parent is whatever was open when it began, and its children cannot
//! overlap each other.  Self time is therefore the span's duration minus
//! the sum of its children's.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// What the span was done for: a program name, or a phase of the run.
    pub request: String,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: String,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: String::new(),
        }
    }

    /// Name the request that spans begun from now on belong to.
    pub fn set_request(&mut self, request: impl Into<String>) {
        self.request = request.into();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` gets the trace back to open child spans.
    /// Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request.clone(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (out, self.spans[index].secs())
    }

    /// Each span's duration minus what its children cover, by index.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.secs();
            }
        }
        own
    }

    /// Count, total and self seconds per span name, in first-seen order.
    pub fn by_name(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_secs();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(own) {
            let row = match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => row,
                None => {
                    rows.push((span.name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += span.secs();
            row.3 += own;
        }
        rows
    }

    /// Write every span as `{name, start, end, parent, request}` (times in
    /// seconds since the trace began).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start", Json::Num(s.start_ns as f64 / 1e9)),
                    ("end", Json::Num(s.end_ns as f64 / 1e9)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::int(p as i64)),
                    ),
                    ("request", Json::str(s.request.as_str())),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::obj([("spans", Json::Arr(spans))]).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new();
        t.set_request("r");
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        let inner: f64 = t.spans[1].secs() + t.spans[2].secs();
        assert!(inner >= 0.010);
        let outer_self = t.self_secs()[0];
        assert!((outer_self - (t.spans[0].secs() - inner)).abs() < 1e-9);
        assert!(outer_self >= 0.0 && outer_self < t.spans[0].secs());
        let rows = t.by_name();
        assert_eq!(rows[0].0, "outer");
        assert_eq!(rows[1].1, 2);
    }
}
