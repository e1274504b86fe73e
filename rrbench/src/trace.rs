//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, and written at exit as Chrome `trace_event` JSON
//! (open in Perfetto or `chrome://tracing`). Spans of one solve or
//! request share its `id`; `args` carry what the layer reported about
//! itself (phase self times, server-side durations).

use rr_bench::json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    cat: &'static str,
    name: String,
    id: u64,
    tid: u64,
    start_us: f64,
    dur_us: f64,
    args: Vec<(String, f64)>,
}

/// An in-memory span list; a disabled recorder drops every span.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder that keeps spans only if `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records one completed span on track `tid`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        cat: &'static str,
        name: &str,
        id: u64,
        tid: u64,
        start: Instant,
        end: Instant,
        args: Vec<(String, f64)>,
    ) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let span = Span {
            cat,
            name: name.to_string(),
            id,
            tid,
            start_us: us(start),
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            args,
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(span);
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .len()
    }

    /// The spans as Chrome `trace_event` JSON.
    pub fn to_chrome_json(&self) -> String {
        let spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread");
        let events = spans
            .iter()
            .map(|s| {
                let mut args: BTreeMap<String, Value> = s
                    .args
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect();
                args.insert("id".into(), Value::Num(s.id as f64));
                let mut e = BTreeMap::new();
                e.insert("name".to_string(), Value::Str(s.name.clone()));
                e.insert("cat".to_string(), Value::Str(s.cat.to_string()));
                e.insert("ph".to_string(), Value::Str("X".into()));
                e.insert("ts".to_string(), Value::Num(s.start_us));
                e.insert("dur".to_string(), Value::Num(s.dur_us));
                e.insert("pid".to_string(), Value::Num(1.0));
                e.insert("tid".to_string(), Value::Num(s.tid as f64));
                e.insert("args".to_string(), Value::Object(args));
                Value::Object(e)
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("traceEvents".to_string(), Value::Array(events));
        doc.insert("displayTimeUnit".to_string(), Value::Str("ms".into()));
        Value::Object(doc).to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing_and_enabled_exports_chrome_json() {
        let t = Instant::now();
        let off = Spans::new(false);
        off.record("solve", "x", 1, 0, t, t, vec![]);
        assert_eq!(off.len(), 0);
        let on = Spans::new(true);
        on.record(
            "solve",
            "charpoly8#0",
            7,
            1,
            t,
            Instant::now(),
            vec![("wall_ms".into(), 1.5)],
        );
        assert_eq!(on.len(), 1);
        let doc = rr_bench::json::from_str(&on.to_chrome_json()).unwrap();
        let e = &doc["traceEvents"][0];
        assert_eq!(e["ph"].as_str(), Some("X"));
        assert_eq!(e["cat"].as_str(), Some("solve"));
        assert_eq!(e["args"]["id"].as_u64(), Some(7));
        assert_eq!(e["args"]["wall_ms"].as_f64(), Some(1.5));
    }
}
