//! The fast paths of the JSON stand-in and the trace scanner, checked
//! against the slow paths they shortcut:
//!
//! 1. the trace scanner takes runs of event bytes at a time, so how a
//!    reader splits a file into reads must not change anything it
//!    reports: traces, skips, status or buffer high-water mark;
//! 2. the per-event byte cap still cuts exactly at `max_event_bytes`;
//! 3. the parser builds short plain integers directly, bitwise equal to
//!    `str::parse::<f64>`;
//! 4. escaped UTF-16 surrogate pairs decode to one character;
//! 5. the memo key's one precomputed hash, which stands in for hashing
//!    the whole key per lookup, spreads real workloads' kernels over every
//!    cache shard.

use std::collections::BTreeSet;
use std::io::Read;

use dlperf_faults::{FaultInjector, FaultPlan, TraceFaultPlan};
use dlperf_graph::lower;
use dlperf_kernels::MemoKey;
use dlperf_models::zoo;
use dlperf_runtime::fnv1a64;
use dlperf_trace::ingest::{ingest_reader, ingest_str, FileIngest, FileStatus, IngestLimits};
use dlperf_trace::{EventCat, Trace, TraceEvent};
use proptest::prelude::*;

/// A reader that hands out `data` in reads of the given lengths, cycling.
struct Chunked<'a> {
    data: &'a [u8],
    lens: &'a [usize],
    next: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.lens[self.next % self.lens.len()];
        self.next += 1;
        let n = want.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Everything a `FileIngest` reports, in comparable form.
fn outcome(ingest: &FileIngest) -> (Vec<String>, String) {
    let traces = ingest.traces.iter().map(Trace::to_json).collect();
    (traces, format!("{:?}", ingest.report))
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A trace whose strings carry escapes (quotes, backslashes, control
/// characters, non-ASCII) so reads split escape sequences and runs.
fn trace(file: u64, n_events: usize) -> Trace {
    let events = (0..n_events)
        .map(|i| {
            let (cat, name) = match i % 3 {
                0 => (EventCat::Op, format!("op \"{i}\" \\ é\n")),
                1 => (EventCat::Runtime, "cudaLaunchKernel".to_string()),
                _ => (
                    EventCat::Kernel,
                    format!("gemm_kernel_{}", "x".repeat(i % 40)),
                ),
            };
            TraceEvent {
                name,
                cat,
                ts_us: i as f64 * 2.0,
                dur_us: 0.5 + i as f64 / 7.0,
                stream: 7,
                op_index: i / 3,
                correlation: if i % 3 == 0 {
                    0
                } else {
                    (file << 32) | (i / 3 + 1) as u64
                },
                op_key: if i % 3 == 0 {
                    "AddMm".into()
                } else {
                    String::new()
                },
            }
        })
        .collect();
    Trace {
        workload: format!("synth-{file}"),
        device: "simdev".into(),
        events,
        span_us: n_events as f64 * 2.0 + 10.0,
    }
}

/// Clean single-trace and array files, plus copies mangled by every
/// trace fault kind.
fn corpus() -> Vec<Vec<u8>> {
    let mut files = Vec::new();
    for file in 0..12u64 {
        let doc = if file % 3 == 0 {
            format!(
                "[{},\n {}]",
                trace(file, 20).to_json(),
                trace(file + 100, 9).to_json()
            )
        } else {
            trace(file, 30).to_json()
        };
        files.push(doc.clone().into_bytes());
        let plan = TraceFaultPlan {
            truncate_prob: 0.2,
            bitflip_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            garbage_prob: 0.2,
        };
        let injector = FaultInjector::new(FaultPlan::healthy(file).with_trace_faults(plan));
        let mut bytes = doc.into_bytes();
        injector.mangle_trace_bytes(0xC0_FFEE, file, &mut bytes);
        files.push(bytes);
    }
    // Hostile framing the scanner must handle identically at any split.
    files.push(br#"{"workload":"w","device":"d","events":[{"a":[[[[1]]]]},"x\u0000y",1,,{"name":"\"}]"}],"span_us":1}"#.to_vec());
    files.push(b"{\"workload\":\"w\",\"events\":[{\"name\":\"a\x00b\"}, {\x00}],\"device\":\"d\",\"span_us\":1}".to_vec());
    // A NUL early in a long element poisons it: nothing after it is
    // buffered.
    let long = format!(
        r#"{{"workload":"w","device":"d","events":[{{"a":1}},{{ {}"{}"}}],"span_us":1}}"#,
        '\0',
        "x".repeat(300)
    );
    files.push(long.into_bytes());
    files
}

/// Digest of every corpus file's outcome under the limits below,
/// captured from the byte-at-a-time scanner the run path replaced: the
/// independent oracle for the reads compared here.
const BYTEWISE_DIGEST: &str = "38da38ea4aa81b0b";

#[test]
fn read_sizes_never_change_a_file_ingest() {
    // Tight caps so some events are oversized and some elements are
    // poisoned by depth.
    let limits = IngestLimits {
        max_event_bytes: 160,
        max_json_depth: 4,
        skip_budget: 1_000,
        ..IngestLimits::default()
    };
    let mut seed = 0x5EED_u64;
    let random: Vec<usize> = (0..64)
        .map(|_| 1 + (xorshift(&mut seed) % 300) as usize)
        .collect();
    let splits: [&[usize]; 5] = [&[1], &[2], &[7], &[8192], &random];
    let files = corpus();
    let mut statuses = Vec::new();
    let mut all = String::new();
    for (k, bytes) in files.iter().enumerate() {
        let reference = outcome(&ingest_reader(
            Chunked {
                data: bytes,
                lens: &[1],
                next: 0,
            },
            "f",
            &limits,
        ));
        all.push_str(&format!("{reference:?}\n"));
        for lens in splits {
            let got = ingest_reader(
                Chunked {
                    data: bytes,
                    lens,
                    next: 0,
                },
                "f",
                &limits,
            );
            assert_eq!(
                outcome(&got),
                reference,
                "file {k}, read lengths {:?}…",
                &lens[..1]
            );
            if lens.len() == 1 && lens[0] == 8192 {
                statuses.push(got.report.status.clone());
            }
        }
    }
    assert_eq!(format!("{:016x}", fnv1a64(all.as_bytes())), BYTEWISE_DIGEST);
    // The corpus reaches every outcome class, so every path was compared.
    assert!(statuses.contains(&FileStatus::Clean));
    assert!(statuses.contains(&FileStatus::Degraded));
    assert!(statuses
        .iter()
        .any(|s| matches!(s, FileStatus::Quarantined(_))));
}

/// One event padded so that its JSON is exactly `len` bytes; the padding
/// is the last string, so the cap falls inside a string run.
fn event_of_len(len: usize, correlation: u64) -> TraceEvent {
    let mut ev = TraceEvent {
        name: "gemm_kernel".into(),
        cat: EventCat::Kernel,
        ts_us: 1.0,
        dur_us: 2.0,
        stream: 7,
        op_index: 0,
        correlation,
        op_key: String::new(),
    };
    let base = serde_json::to_string(&ev).unwrap().len();
    ev.op_key = "k".repeat(len - base);
    assert_eq!(serde_json::to_string(&ev).unwrap().len(), len);
    ev
}

fn doc_of(events: Vec<TraceEvent>) -> String {
    Trace {
        workload: "w".into(),
        device: "d".into(),
        events,
        span_us: 10.0,
    }
    .to_json()
}

#[test]
fn event_cap_cuts_exactly_at_max_event_bytes() {
    let cap = 200;
    let limits = IngestLimits {
        max_event_bytes: cap,
        ..IngestLimits::default()
    };
    let at_cap = event_of_len(cap, 1);
    // One byte over, and far over with the cap inside the padding run.
    let doc = doc_of(vec![
        at_cap.clone(),
        event_of_len(cap + 1, 2),
        event_of_len(cap + 90, 3),
    ]);
    // Buffering the at-cap event whole is the high-water mark; the
    // oversized ones are cut at the cap and never raise it.
    let alone = ingest_str(&doc_of(vec![at_cap.clone()]), "f", &limits);
    assert_eq!(alone.report.status, FileStatus::Clean);
    for lens in [&[1usize][..], &[7], &[64], &[8192]] {
        let ingest = ingest_reader(
            Chunked {
                data: doc.as_bytes(),
                lens,
                next: 0,
            },
            "f",
            &limits,
        );
        assert_eq!(
            ingest.report.status,
            FileStatus::Degraded,
            "reads of {lens:?}"
        );
        assert_eq!(ingest.report.skips.oversized, 2);
        assert_eq!(ingest.report.skips.total(), 2);
        assert_eq!(ingest.traces[0].events, vec![at_cap.clone()]);
        assert_eq!(
            ingest.report.peak_buffer_bytes, alone.report.peak_buffer_bytes,
            "reads of {lens:?}"
        );
    }
}

/// A numeric literal assembled from parts: sign, 0–20 integer digits
/// (leading zeros allowed), optional fraction and exponent.
fn literal(
    (neg, int, frac_kind, frac, exp_kind, exp): (bool, Vec<u8>, u8, Vec<u8>, u8, Vec<u8>),
) -> String {
    let digits = |d: &[u8]| d.iter().map(|&x| char::from(b'0' + x)).collect::<String>();
    let mut s = String::new();
    if neg {
        s.push('-');
    }
    s.push_str(&digits(&int));
    if frac_kind > 0 {
        s.push('.');
        s.push_str(&digits(&frac));
    }
    match exp_kind {
        1 => s.push('e'),
        2 => s.push_str("E+"),
        3 => s.push_str("e-"),
        _ => {}
    }
    if exp_kind > 0 {
        s.push_str(&digits(&exp));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parsed_numbers_equal_str_parse_bitwise(
        parts in (
            prop_oneof![Just(false), Just(false), Just(true)],
            proptest::collection::vec(0u8..10, 0..21),
            prop_oneof![Just(0u8), Just(0u8), Just(1u8)],
            proptest::collection::vec(0u8..10, 0..6),
            prop_oneof![Just(0u8), Just(0u8), Just(0u8), 1u8..4],
            proptest::collection::vec(0u8..10, 0..4),
        )
    ) {
        let lit = literal(parts);
        let parsed = serde_json::parse(&lit).ok().map(|v| v.as_f64().map(f64::to_bits));
        if lit.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            let expected = lit.parse::<f64>().ok().map(|n| Some(n.to_bits()));
            prop_assert_eq!(parsed, expected, "literal {}", lit);
        } else {
            prop_assert_eq!(parsed, None, "literal {}", lit);
        }
        // Inside a document, the literal ends where the general path
        // would end it.
        let doc = format!("[{lit},1]");
        let in_doc = serde_json::parse(&doc).ok().map(|v| v[0].as_f64().map(f64::to_bits));
        prop_assert_eq!(in_doc, parsed, "document {}", doc);
    }
}

#[test]
fn integer_fast_path_edges() {
    for lit in [
        "0",
        "7",
        "999999999999999",
        "1000000000000000",
        "9007199254740993",
        "00",
        "012",
    ] {
        let v = serde_json::parse(lit).unwrap();
        assert_eq!(
            v.as_f64().unwrap().to_bits(),
            lit.parse::<f64>().unwrap().to_bits(),
            "{lit}"
        );
    }
}

#[test]
fn escaped_surrogate_pairs_decode_to_one_char() {
    let s = |json: &str| {
        serde_json::parse(json)
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(s(r#""\ud83d\ude00""#), "😀");
    assert_eq!(s(r#""a\uD834\uDD1Eb""#), "a𝄞b");
    // Lone surrogates stay U+FFFD, and what follows them is kept.
    assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
    assert_eq!(s(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
    assert_eq!(s(r#""\ud83dx""#), "\u{fffd}x");
    assert_eq!(s(r#""\ud83d\n""#), "\u{fffd}\n");
    assert_eq!(s(r#""\ud83dA""#), "\u{fffd}A");
    assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
    assert!(serde_json::parse(r#""\ud83d\uZZZZ""#).is_err());
    // A string the writer emits raw round-trips unchanged.
    let text = "😀 \u{2028} é";
    assert_eq!(s(&serde_json::to_string(&text).unwrap()), text);
}

#[test]
fn zoo_kernels_populate_every_memo_shard() {
    let mut keys = BTreeSet::new();
    for name in zoo::MODEL_NAMES {
        for batch in [128, 1024, 4096] {
            let graph = zoo::build(name, batch).expect("zoo model builds");
            for node in graph.nodes() {
                let kernels = lower::try_kernels(&graph, node).expect("zoo model lowers");
                keys.extend(kernels.iter().map(MemoKey::of));
            }
        }
    }
    let mut per_shard = [0usize; 16];
    for key in &keys {
        per_shard[key.shard()] += 1;
    }
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "an empty shard: {per_shard:?}"
    );
    let fair = keys.len() / per_shard.len();
    assert!(
        per_shard.iter().all(|&n| n <= 2 * fair),
        "a shard holds over twice its share of {} keys: {per_shard:?}",
        keys.len()
    );
}
