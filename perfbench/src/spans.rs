//! In-memory spans recorded around the benchmark's calls into the
//! simulator, written out as newline-delimited JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One span. Profiler rows are recorded as aggregate children of the
/// phase they were measured in: they carry a duration (the kind's summed
/// host time) but no wall-clock position of their own.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: String,
    pub attrs: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub aggregate: bool,
    pub events: u64,
}

/// The span store of one benchmark run.
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Opens a span now and returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>, attrs: String) -> usize {
        self.list.push(Span {
            parent,
            name: name.to_string(),
            attrs,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            aggregate: false,
            events: 0,
        });
        self.list.len() - 1
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.list[id];
        span.dur_ns = now - span.start_ns;
        span.dur_ns
    }

    /// Records an aggregate child of `parent` (a profiler row).
    pub fn aggregate(&mut self, parent: usize, name: &str, dur_ns: u64, events: u64) {
        let start_ns = self.list[parent].start_ns;
        self.list.push(Span {
            parent: Some(parent),
            name: name.to_string(),
            attrs: String::new(),
            start_ns,
            dur_ns,
            aggregate: true,
            events,
        });
    }

    /// Duration of span `id` minus the durations of its direct children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .list
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns)
            .sum();
        self.list[id].dur_ns.saturating_sub(children)
    }

    /// Writes every span, one JSON object per line, with its self time.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"attrs\": \"{}\", \
                 \"start_ns\": {}, \"dur_ns\": {}, \"self_ns\": {}, \"aggregate\": {}, \
                 \"events\": {}}}",
                s.name,
                s.attrs,
                s.start_ns,
                s.dur_ns,
                self.self_ns(id),
                s.aggregate,
                s.events
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new();
        let root = s.open("root", None, String::new());
        let child = s.open("child", Some(root), String::new());
        s.close(child);
        s.close(root);
        s.aggregate(child, "kind", 0, 3);
        assert_eq!(s.self_ns(root), s.list[root].dur_ns - s.list[child].dur_ns);
        assert_eq!(s.self_ns(child), s.list[child].dur_ns);
    }
}
