//! In-memory spans recorded around calls into the program's layers.
//!
//! One span per call: its name, start and end (ns since the tracer was
//! made), the span open when it started (its parent, 0 for none), and
//! the request it served. Spans stay in memory until [`Tracer::write`].

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

/// A span recorder; a disabled one only runs the wrapped calls.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// The request every span opened from now on belongs to.
    pub fn set_request(&self, req: u32) {
        if self.enabled {
            self.state.lock().expect("a span writer panicked").req = req;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.state.lock().expect("a span writer panicked");
            let id = st.spans.len() as u32 + 1;
            let span = Span {
                id,
                parent: st.open.last().copied().unwrap_or(0),
                req: st.req,
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            };
            st.spans.push(span);
            st.open.push(id);
            id as usize - 1
        };
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.lock().expect("a span writer panicked");
        st.spans[idx].end_ns = end;
        st.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("a span writer panicked")
            .spans
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.state.lock().expect("a span writer panicked").spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_request_id() {
        let t = Tracer::new(true);
        t.set_request(7);
        let v = t.span("outer", || t.span("inner", || 3));
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", spans[0].id));
        assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.spans().is_empty());
    }
}
