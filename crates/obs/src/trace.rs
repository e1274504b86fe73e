//! Merged trace data and exporters.
//!
//! A [`Trace`] is what [`Recorder::finish`](crate::Recorder::finish)
//! returns: every thread's spans and counter samples merged onto one
//! timeline (nanoseconds since the recorder epoch). Higher layers may
//! append records rebased from external clocks (the scheduler's
//! per-task timings arrive this way) before exporting.
//!
//! The primary exporter is [`Trace::to_chrome_json`], which emits the
//! Chrome `trace_event` format understood by Perfetto and
//! `chrome://tracing`: an object with a `traceEvents` array of `"X"`
//! (complete) duration events, `"C"` counter events, and `"M"`
//! metadata events naming the tracks. Timestamps (`ts`) and durations
//! (`dur`) are microseconds, kept fractional to preserve nanosecond
//! resolution.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A closed span: a named interval of work on one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. a phase label like `"remainder"`).
    pub name: Cow<'static, str>,
    /// Category: `"phase"`, `"stage"`, `"task"`, …
    pub cat: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Track id: recorder-local thread index, or a synthetic track
    /// (e.g. [`WORKER_TRACK_BASE`]` + worker`) for rebased records.
    pub tid: u32,
    /// Numeric arguments shown in the trace viewer's detail pane.
    pub args: Vec<(&'static str, u64)>,
}

/// A timestamped counter sample (rendered as a graph track by Chrome).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRecord {
    /// Counter series name (e.g. `"queue-depth"`).
    pub name: &'static str,
    /// Sample time, nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Sample value.
    pub value: f64,
}

/// Track ids at and above this value are synthetic scheduler-worker
/// tracks (`WORKER_TRACK_BASE + worker_index`), disjoint by
/// construction from recorder-assigned thread indices.
pub const WORKER_TRACK_BASE: u32 = 1000;

/// A merged, time-sorted collection of spans and counters.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All spans, sorted by `(start_ns, Reverse(dur_ns), tid)` so an
    /// enclosing span precedes the spans nested within it.
    pub spans: Vec<SpanRecord>,
    /// All counter samples, sorted by time.
    pub counters: Vec<CounterRecord>,
    /// `(tid, label)` for every track that recorded, sorted by tid.
    pub threads: Vec<(u32, String)>,
}

impl Trace {
    /// Serializes the trace as Chrome `trace_event` JSON, loadable in
    /// Perfetto or `chrome://tracing`. All events use `pid` 1; each
    /// trace track becomes a `tid` with an `"M"` `thread_name` record.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        for (tid, label) in &self.threads {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json_str(label)
            );
        }
        for s in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":{},\"name\":{},\
                 \"ts\":{},\"dur\":{}",
                s.tid,
                json_str(s.cat),
                json_str(&s.name),
                micros(s.start_ns),
                micros(s.dur_ns),
            );
            if !s.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in s.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{v}", json_str(k));
                }
                out.push('}');
            }
            out.push('}');
        }
        for c in &self.counters {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":{},\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                json_str(c.name),
                micros(c.t_ns),
                fmt_f64(c.value),
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes [`Trace::to_chrome_json`] to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

/// Nanoseconds → microseconds with fractional part, trailing zeros
/// trimmed (`1500` → `"1.5"`, `2000` → `"2"`).
fn micros(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let mut s = format!("{whole}.{frac:03}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, cat: &'static str, start: u64, dur: u64, tid: u32) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            cat,
            start_ns: start,
            dur_ns: dur,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn chrome_json_shape() {
        let trace = Trace {
            spans: vec![{
                let mut s = sp("remainder", "phase", 1_500, 2_000, 0);
                s.args.push(("n", 20));
                s
            }],
            counters: vec![CounterRecord { name: "queue-depth", t_ns: 2_000, value: 3.0 }],
            threads: vec![(0, "main".to_owned())],
        };
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"main\"}}"
        ));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"remainder\""));
        assert!(json.contains("\"ts\":1.5"));
        assert!(json.contains("\"dur\":2"));
        assert!(json.contains("\"args\":{\"n\":20}"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":3}"));
    }

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(2_000), "2");
        assert_eq!(micros(1_500), "1.5");
        assert_eq!(micros(1_001), "1.001");
        assert_eq!(micros(999), "0.999");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
