//! Fuzzing `jsonlint`, the parser every emitted document and every daemon
//! request line goes through.
//!
//! Contract: arbitrary bytes, JSON-token soup, and nesting at the depth
//! cap ± 1 give `Ok` or a typed `JsonError` with an in-range offset, never
//! a panic, and `validate` agrees with `parse`. Everything the row writers
//! emit (`report::json_str`, `json_f64`, `write_json`, `write_json_dyn`,
//! `spec::render_json` and `RunResult::to_json`) validates and reads back
//! to what was written.

use mpiq_bench::jsonlint::{parse, validate, Json, JsonError, MAX_DEPTH};
use mpiq_bench::report::{json_f64, json_str, write_json, write_json_dyn, JsonRow};
use mpiq_bench::spec::{render_json, ResultRow, RunResult};
use mpiq_dessim::SimRng;
use proptest::prelude::*;
use std::path::PathBuf;

/// Grammar fragments, valid and broken, for token soup.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\n",
    "\t",
    "\"",
    "\"k\"",
    "\"\\\"\"",
    "\"\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud800\"",
    "\"\\udc00x\"",
    "\"\\x\"",
    "\"\\u12\"",
    "0",
    "-0",
    "01",
    "-",
    "1.",
    ".5",
    "1e",
    "1e+9",
    "-1.5E-3",
    "1e400",
    "-1e400",
    "18446744073709551616",
    "true",
    "tru",
    "false",
    "null",
    "nul",
    "NaN",
    "Infinity",
    "\u{7f}",
    "\u{0}",
    "\u{1f}",
    "é",
    "\\",
];

/// Check one input against the contract; returns the parse for callers
/// that know what it should be.
fn check(text: &str) -> Result<Result<Json, JsonError>, TestCaseError> {
    let parsed = parse(text);
    prop_assert_eq!(
        validate(text),
        parsed.clone().map(|_| ()),
        "validate and parse disagree on {:?}",
        text
    );
    match &parsed {
        Ok(doc) => {
            let rendered = render_json(doc);
            prop_assert!(
                validate(&rendered).is_ok(),
                "{:?} rendered as invalid {:?}",
                text,
                rendered
            );
        }
        Err(e) => {
            let offset = match e {
                JsonError::TooDeep { offset } | JsonError::Syntax { offset, .. } => *offset,
            };
            prop_assert!(
                offset <= text.len(),
                "offset {} past end of {:?}",
                offset,
                text
            );
            let prefix = format!("byte {offset}: ");
            prop_assert!(
                e.to_string().starts_with(&prefix),
                "{} displays as {}",
                text,
                e
            );
        }
    }
    Ok(parsed)
}

fn soup(rng: &mut SimRng, len: u64) -> String {
    (0..len)
        .map(|_| TOKENS[rng.gen_range(TOKENS.len() as u64) as usize])
        .collect()
}

/// `depth` nested containers, each an array or a one-member object as
/// `rng` picks, around a scalar; also the byte offset of each opener.
fn nested(rng: &mut SimRng, depth: usize) -> (String, Vec<usize>) {
    let kinds: Vec<bool> = (0..depth).map(|_| rng.gen_range(2) == 0).collect();
    let mut s = String::new();
    let mut openers = Vec::new();
    for &is_array in &kinds {
        openers.push(s.len());
        s.push_str(if is_array { "[" } else { "{\"k\":" });
    }
    s.push('1');
    for &is_array in kinds.iter().rev() {
        s.push(if is_array { ']' } else { '}' });
    }
    (s, openers)
}

/// A string over characters the escaper must handle: quotes, backslashes,
/// every control character, DEL, and multi-byte code points.
fn text(rng: &mut SimRng, len: u64) -> String {
    const SPECIAL: &[char] = &['"', '\\', '/', '\u{7f}', 'é', '€', '😀', '\u{2028}', 'k'];
    (0..len)
        .map(|_| match rng.gen_range(3) {
            0 => char::from(rng.gen_range(0x20) as u8),
            1 => SPECIAL[rng.gen_range(SPECIAL.len() as u64) as usize],
            _ => char::from(0x20 + rng.gen_range(0x5f) as u8),
        })
        .collect()
}

/// A rendered value fragment as a row writer produces it.
fn fragment(rng: &mut SimRng) -> String {
    match rng.gen_range(3) {
        0 => json_f64(f64::from_bits(rng.next_u64())),
        1 => json_f64(rng.gen_range(1 << 20) as f64 / 64.0),
        _ => json_str(&text(rng, 12)),
    }
}

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpiq_jsonlint_fuzz_{}_{name}", std::process::id()))
}

struct Row(Vec<(&'static str, String)>);

impl JsonRow for Row {
    fn fields(&self) -> Vec<(&'static str, String)> {
        self.0.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let len = rng.gen_range(40);
        let _ = check(&soup(&mut rng, len))?;
    }

    #[test]
    fn nesting_at_the_cap(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            let (doc, openers) = nested(&mut rng, depth);
            let parsed = check(&doc)?;
            if depth <= MAX_DEPTH {
                prop_assert!(parsed.is_ok(), "depth {} rejected: {:?}", depth, parsed);
            } else {
                let offset = openers[MAX_DEPTH];
                prop_assert_eq!(parsed, Err(JsonError::TooDeep { offset }));
            }
            // Cutting the document anywhere leaves it unclosed.
            let cut = rng.gen_range(doc.len() as u64) as usize;
            prop_assert!(check(&doc[..cut])?.is_err(), "truncated {:?} accepted", &doc[..cut]);
        }
    }

    #[test]
    fn scalar_writers_read_back(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let s = text(&mut rng, 24);
        prop_assert_eq!(check(&json_str(&s))?, Ok(Json::Str(s.clone())));
        let v = f64::from_bits(rng.next_u64());
        let want = if v.is_finite() { Json::Num(v) } else { Json::Null };
        prop_assert_eq!(check(&json_f64(v))?, Ok(want));
    }

    #[test]
    fn run_results_read_back(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let rows = (0..rng.gen_range(4))
            .map(|_| ResultRow {
                csv: text(&mut rng, 16),
                fields: (0..rng.gen_range(5))
                    .map(|_| (text(&mut rng, 6), fragment(&mut rng)))
                    .collect(),
            })
            .collect();
        let result = RunResult {
            bench: text(&mut rng, 6),
            header: text(&mut rng, 16),
            rows,
            text: text(&mut rng, 30),
            notes: (0..rng.gen_range(3)).map(|_| text(&mut rng, 10)).collect(),
            failures: (0..rng.gen_range(3)).map(|_| text(&mut rng, 10)).collect(),
        };
        let json = result.to_json();
        prop_assert!(check(&json)?.is_ok(), "RunResult emitted invalid {:?}", json);
        prop_assert_eq!(RunResult::from_json(&json), Ok(result));
    }
}

proptest! {
    // Each case writes two files; fewer cases keep the run short.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_files_validate(seed in any::<u64>()) {
        const KEYS: &[&str] = &["a", "queue_len", "lat\"ency", "back\\slash", "ctl\u{1}", "é"];
        let mut rng = SimRng::new(seed);
        let rows: Vec<Vec<(String, String)>> = (0..rng.gen_range(4))
            .map(|_| {
                (0..rng.gen_range(5))
                    .map(|_| (text(&mut rng, 6), fragment(&mut rng)))
                    .collect()
            })
            .collect();
        let path = scratch_file(&format!("dyn_{seed}.json"));
        write_json_dyn(&path, &rows).expect("write rows");
        let doc = std::fs::read_to_string(&path).expect("read rows");
        std::fs::remove_file(&path).ok();
        let parsed = check(&doc)?;
        prop_assert!(parsed.is_ok(), "write_json_dyn emitted invalid {:?}", doc);
        let len = parsed.ok().and_then(|d| d.as_array().map(<[Json]>::len));
        prop_assert_eq!(len, Some(rows.len()));

        let typed: Vec<Row> = rows
            .iter()
            .map(|r| {
                let key = |rng: &mut SimRng| KEYS[rng.gen_range(KEYS.len() as u64) as usize];
                Row(r.iter().map(|(_, v)| (key(&mut rng), v.clone())).collect())
            })
            .collect();
        let path = scratch_file(&format!("typed_{seed}.json"));
        write_json(&path, &typed).expect("write rows");
        let doc = std::fs::read_to_string(&path).expect("read rows");
        std::fs::remove_file(&path).ok();
        prop_assert!(check(&doc)?.is_ok(), "write_json emitted invalid {:?}", doc);
    }
}

/// Far past the cap: a typed error, not a stack overflow.
#[test]
fn deep_nesting_is_a_typed_error() {
    for opener in ["[", "{\"k\":"] {
        let doc = opener.repeat(100_000);
        let offset = MAX_DEPTH * opener.len();
        assert_eq!(parse(&doc), Err(JsonError::TooDeep { offset }));
    }
}
