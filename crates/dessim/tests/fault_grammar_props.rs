//! Fuzzing the two fault grammars that arrive from outside the process:
//! the `FaultSchedule` timeline (`crash@500us:node=3;flap@...`) and the
//! `--faults` probability spec (`seed=1,drop=0.01`).
//!
//! Contract: any input — raw bytes or a near-miss of the grammar —
//! parses to `Ok` or a typed `Err`, never a panic. A schedule that
//! parses also renders back to text that reparses to the same schedule.

use mpiq_dessim::{FaultConfig, FaultSchedule, SimRng, Time};
use proptest::prelude::*;

/// Grammar fragments, near-misses and hostile numbers, glued together at
/// random so most inputs get deep into the parser before failing.
const SCHEDULE_TOKENS: &[&str] = &[
    "crash", "restart", "flap", "partition", "alpu", "warp", "@", ":", ";", ",", "=", "-", ".",
    "|", "node", "nic", "edge", "down", "heal", "groups", "mttr", "0", "1", "3", "42",
    "4294967295", "4294967296", "18446744073709551615", "18446744073709551616",
    "99999999999999999", "ps", "ns", "us", "ms", "s", " ", "", "é", "\0",
];

const CONFIG_TOKENS: &[&str] = &[
    "seed", "drop", "dup", "corrupt", "flip", "stall", "warp", "=", ",", "0", "1", "0.5", "1.5",
    "-0.1", "NaN", "inf", "-inf", "1e400", "18446744073709551616", ".", " ", "",
];

fn soup(seed: u64, tokens: &[&str], max_len: u64) -> String {
    let mut rng = SimRng::new(seed);
    let len = rng.gen_range(max_len);
    (0..len)
        .map(|_| tokens[rng.gen_range(tokens.len() as u64) as usize])
        .collect()
}

/// Well-formed `kind@time:key=value,...` events with hostile numbers in
/// every slot, so the fuzzer reaches the time and id arithmetic.
fn events(seed: u64) -> String {
    const KINDS: &[&str] = &["crash", "restart", "flap", "partition", "alpu"];
    const KEYS: &[&str] = &["node", "nic", "edge", "down", "heal", "groups", "mttr"];
    const NUMS: &[&str] = &["0", "7", "4294967296", "18446744073709551615", "99999999999999999"];
    const UNITS: &[&str] = &["ps", "ns", "us", "ms", ""];
    let mut rng = SimRng::new(seed);
    let mut pick = |xs: &[&'static str]| xs[rng.gen_range(xs.len() as u64) as usize];
    let mut out = Vec::new();
    for _ in 0..3 {
        let mut args = Vec::new();
        for _ in 0..3 {
            let (key, n, unit) = (pick(KEYS), pick(NUMS), pick(UNITS));
            args.push(match key {
                "edge" => format!("edge={n}-{}", pick(NUMS)),
                "groups" => format!("groups={n}.{}|{}", pick(NUMS), pick(NUMS)),
                "down" | "heal" | "mttr" => format!("{key}={n}{unit}"),
                _ => format!("{key}={n}"),
            });
        }
        let (kind, at, unit) = (pick(KINDS), pick(NUMS), pick(UNITS));
        out.push(format!("{kind}@{at}{unit}:{}", args.join(",")));
    }
    out.join(";")
}

fn check_schedule(text: &str) -> Result<(), TestCaseError> {
    if let Ok(sched) = text.parse::<FaultSchedule>() {
        let rendered = sched.to_string();
        let back = rendered.parse::<FaultSchedule>();
        prop_assert!(back.is_ok(), "`{}` rendered as unparsable `{}`", text, rendered);
        let back = back.unwrap();
        prop_assert_eq!(back.events(), sched.events());
        // Queries add durations to event times: none may overflow.
        let mut times: Vec<Time> = sched.events().iter().map(|&(at, _)| at).collect();
        times.extend([Time::ZERO, Time(u64::MAX)]);
        for &t in &times {
            for (a, b) in [(0, 1), (0, 7), (7, 0), (1, u32::MAX)] {
                let _ = sched.edge_down(a, b, t);
                let _ = (sched.node_down(a, t), sched.incarnation_at(a, t), sched.groups_at(a, t));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn schedule_parser_never_panics_on_bytes(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        check_schedule(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn schedule_parser_never_panics_on_grammar_soup(seed in any::<u64>()) {
        check_schedule(&soup(seed, SCHEDULE_TOKENS, 40))?;
    }

    #[test]
    fn schedule_parser_never_panics_on_hostile_events(seed in any::<u64>()) {
        check_schedule(&events(seed))?;
    }

    #[test]
    fn fault_config_parser_never_panics(seed in any::<u64>()) {
        let _ = soup(seed, CONFIG_TOKENS, 24).parse::<FaultConfig>();
    }
}

/// The near-misses that used to panic: time literals whose picosecond
/// count overflows 64 bits, and a crash repair or link flap that ends
/// past the end of time.
#[test]
fn overflowing_times_are_typed_errors() {
    for text in [
        "crash@99999999999999999ms:node=1",
        "flap@1us:edge=0-1,down=18446744073709551615us",
        "flap@1us:edge=0-1,down=18446744073709551615ps",
        "partition@1us:groups=0|1,heal=20000000000000ms",
        "crash@18446744073709551615ps:node=1,mttr=1ps",
    ] {
        let err = text.parse::<FaultSchedule>().expect_err(text);
        assert!(err.contains("overflow"), "{text}: {err}");
    }
}
