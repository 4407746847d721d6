//! Fuzzing `RunSpec::from_json`, the parser every spec crosses on its way
//! in from a client socket or a `--server` submission.
//!
//! Contract: any byte string, and any JSON-shaped string, parses to `Ok`
//! or a typed `Err` — never a panic. A spec that parses serializes back
//! to JSON that reparses to the same spec, and its cache key is the same
//! whether it asks for 0 or 1 engine threads (both mean one thread).

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec, BENCHES};
use mpiq_dessim::SimRng;
use proptest::prelude::*;

/// The default spec of every bench, as its canonical JSON.
fn seeds() -> Vec<String> {
    BENCHES
        .iter()
        .map(|&bench| {
            let cli = Cli::try_parse_from(bench, "test", flags(bench), std::iter::empty())
                .unwrap_or_else(|e| panic!("{bench}: {e:?}"));
            RunSpec::from_cli(bench, &cli)
                .unwrap_or_else(|e| panic!("{bench}: {e}"))
                .to_json()
        })
        .collect()
}

/// Keys and literals the parser looks for, plus hostile values.
const KEYS: &[&str] = &[
    "bench", "params", "seed", "faults", "threads", "sweep_threads", "configs", "max_queue",
    "step", "fractions", "sizes", "burst", "scenarios", "seeds", "senders", "msgs", "size",
    "credits", "thread_counts", "ranks", "ops", "topos", "modes", "len", "iters", "alpu",
];
const VALUES: &[&str] = &[
    "0", "1", "-1", "2.5", "1e400", "-1e400", "18446744073709551615", "18446744073709551616",
    "4294967296", "null", "true", "false", "\"\"", "\"fig5\"", "\"soak\"", "\"alpu128\"",
    "\"incast\"", "\"hub\"", "\"barrier\"", "[]", "[0]", "[\"x\"]", "[1.5,-2]", "{}",
];

/// A random JSON-shaped document built from the parser's own vocabulary.
fn json_soup(rng: &mut SimRng, depth: u32) -> String {
    let pick = |rng: &mut SimRng, xs: &[&str]| xs[rng.gen_range(xs.len() as u64) as usize].to_string();
    match rng.gen_range(if depth == 0 { 1 } else { 4 }) {
        0 => pick(rng, VALUES),
        1 => {
            let n = rng.gen_range(4);
            let items: Vec<String> = (0..n).map(|_| json_soup(rng, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let n = rng.gen_range(7);
            let fields: Vec<String> = (0..n)
                .map(|_| format!("\"{}\":{}", pick(rng, KEYS), json_soup(rng, depth - 1)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// A valid spec with a few random byte-level edits: flips, deletions,
/// duplicated spans, and hostile literals spliced in.
fn mutated(rng: &mut SimRng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.gen_range(4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(bytes.len() as u64) as usize;
        match rng.gen_range(4) {
            0 => bytes[at] = rng.next_u64() as u8,
            1 => {
                bytes.remove(at);
            }
            2 => {
                let end = (at + 1 + rng.gen_range(16) as usize).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => {
                let lit = VALUES[rng.gen_range(VALUES.len() as u64) as usize];
                bytes.splice(at..at, lit.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn check(text: &str) -> Result<(), TestCaseError> {
    let Ok(spec) = RunSpec::from_json(text) else {
        return Ok(());
    };
    let json = spec.to_json();
    let back = RunSpec::from_json(&json);
    prop_assert_eq!(back, Ok(spec.clone()), "{} reserialized as {}", text, json);
    let (mut zero, mut one) = (spec.clone(), spec);
    (zero.threads, one.threads) = (0, 1);
    prop_assert_eq!(zero.cache_key("v"), one.cache_key("v"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn from_json_never_panics_on_bytes(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn from_json_never_panics_on_json_soup(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        check(&json_soup(&mut rng, 4))?;
    }

    #[test]
    fn from_json_never_panics_on_mutated_specs(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let seeds = seeds();
        let base = &seeds[rng.gen_range(seeds.len() as u64) as usize];
        check(&mutated(&mut rng, base))?;
    }
}
