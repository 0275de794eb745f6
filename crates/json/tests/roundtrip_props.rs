//! Property tests: `from_str(to_string(v)) == v` for every value the
//! encoder can emit in canonical form.
//!
//! "Canonical" pins down the one representation the parser produces
//! for each number class: non-negative integers are `UInt`, negative
//! integers are `Int`, and floats are `Num` — finite, at any magnitude:
//! every integral float prints with a `.0`, so even one in the range
//! where its digits would fit a `u64` (1e15 ≤ |x| < 2^64) parses back as
//! a float. The generator below only produces canonical values, which
//! is exactly the set `ToJson` implementations in this workspace emit.

use het_json::{from_str, Json};
use het_rng::rngs::StdRng;
use het_rng::{Rng, SeedableRng};

/// Strings that historically break hand-rolled JSON codecs.
const NASTY_STRINGS: &[&str] = &[
    "",
    " ",
    "\"",
    "\\",
    "\\\\\"",
    "\n\r\t",
    "\u{0}\u{1}\u{1f}",         // control characters → \u00xx escapes
    "a\u{8}b\u{c}c",            // backspace / form feed
    "日本語 ключ ελληνικά",     // multi-byte UTF-8
    "emoji \u{1F600}\u{1F680}", // astral plane (surrogate pairs in \u form)
    "tab\tand\nnewline",
    "{\"not\":\"json\"}",
    "trailing backslash \\",
    "\u{7f}\u{80}\u{7ff}\u{800}",
];

fn random_string(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.4) {
        return NASTY_STRINGS[rng.gen_range(0..NASTY_STRINGS.len())].to_string();
    }
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| match rng.gen_range(0u32..6) {
            0 => char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap(),
            1 => char::from_u32(rng.gen_range(0u32..0x20)).unwrap(), // control
            2 => ['"', '\\', '/', '\n', '\t'][rng.gen_range(0usize..5)],
            3 => char::from_u32(rng.gen_range(0x80u32..0x800)).unwrap(),
            4 => {
                // Avoid the surrogate range [0xD800, 0xE000).
                let c = rng.gen_range(0x800u32..0xD800);
                char::from_u32(c).unwrap()
            }
            _ => char::from_u32(rng.gen_range(0x10000u32..0x10400)).unwrap(), // astral
        })
        .collect()
}

/// Number edge cases that must survive a round trip exactly.
const EDGE_UINTS: &[u64] = &[0, 1, u64::MAX, u64::MAX - 1, i64::MAX as u64, 1 << 53];
const EDGE_INTS: &[i64] = &[-1, i64::MIN, i64::MIN + 1, -(1 << 53)];
const EDGE_NUMS: &[f64] = &[
    0.5,
    -0.5,
    2.0,
    -2.0,
    1.5e-9,
    f64::EPSILON,
    f64::MIN_POSITIVE,
    1e11,
    1e15,
    -2.5e16,
    9007199254740993.0,     // 2^53 + 1 rounds to 2^53
    18446744073709549568.0, // the largest float below 2^64
    1e20,
    f64::MAX,
    -99999.25,
    0.1 + 0.2, // classic shortest-repr stress value
];

fn random_number(rng: &mut StdRng) -> Json {
    match rng.gen_range(0u32..7) {
        0 => Json::UInt(EDGE_UINTS[rng.gen_range(0..EDGE_UINTS.len())]),
        1 => Json::UInt(rng.gen_range(0..u64::MAX)),
        // Negative only: a non-negative Int re-parses as UInt.
        2 => Json::Int(EDGE_INTS[rng.gen_range(0..EDGE_INTS.len())]),
        3 => Json::Int(-rng.gen_range(1i64..i64::MAX)),
        4 => Json::Num(EDGE_NUMS[rng.gen_range(0..EDGE_NUMS.len())]),
        5 => {
            // Integral, 1e15 ≤ |x| < 2^64: digits that would fit a u64.
            let x = rng.gen_range(1e15..18446744073709549568.0f64).trunc();
            Json::Num(if rng.gen_bool(0.5) { -x } else { x })
        }
        _ => {
            // Finite, |x| < 2^32, integral one time in 2^20.
            let x = (rng.gen_range(0u64..1 << 52) as f64 / (1u64 << 20) as f64)
                * if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
            Json::Num(x)
        }
    }
}

fn random_value(rng: &mut StdRng, depth: usize) -> Json {
    let scalar_only = depth >= 4;
    match rng.gen_range(0u32..if scalar_only { 4 } else { 6 }) {
        0 => match rng.gen_range(0u32..3) {
            0 => Json::Null,
            1 => Json::Bool(true),
            _ => Json::Bool(false),
        },
        1 | 2 => random_number(rng),
        3 => Json::Str(random_string(rng)),
        4 => {
            let n = rng.gen_range(0usize..5);
            Json::Arr((0..n).map(|_| random_value(rng, depth + 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0usize..5);
            Json::Obj(
                (0..n)
                    .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                    .collect(),
            )
        }
    }
}

#[test]
fn compact_encoding_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x1507);
    for case in 0..2_000 {
        let v = random_value(&mut rng, 0);
        let text = v.encode();
        let back = from_str(&text).unwrap_or_else(|e| panic!("case {case}: {e:?} in {text}"));
        assert_eq!(v, back, "case {case}: {text}");
    }
}

#[test]
fn pretty_encoding_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x1508);
    for case in 0..1_000 {
        let v = random_value(&mut rng, 0);
        let text = v.encode_pretty();
        let back = from_str(&text).unwrap_or_else(|e| panic!("case {case}: {e:?} in {text}"));
        assert_eq!(v, back, "case {case}: pretty form diverged");
    }
}

#[test]
fn number_class_boundaries_round_trip() {
    // The parser classifies by value, not by source type: integral
    // text → UInt if it fits, else Int, else Num. These are the
    // boundary values where a sloppy codec flips class.
    for &u in EDGE_UINTS {
        assert_eq!(from_str(&Json::UInt(u).encode()).unwrap(), Json::UInt(u));
    }
    for &i in EDGE_INTS {
        assert_eq!(from_str(&Json::Int(i).encode()).unwrap(), Json::Int(i));
    }
    for &x in EDGE_NUMS {
        assert_eq!(from_str(&Json::Num(x).encode()).unwrap(), Json::Num(x));
    }
    // u64::MAX + 1 in text form no longer fits an integer and falls
    // back to Num.
    assert_eq!(
        from_str("18446744073709551616").unwrap(),
        Json::Num(18446744073709551616.0)
    );
    // Just below i64::MIN likewise.
    assert_eq!(
        from_str("-9223372036854775809").unwrap(),
        Json::Num(-9223372036854775809.0)
    );
}

#[test]
fn nasty_strings_round_trip_as_keys_and_values() {
    for s in NASTY_STRINGS {
        let v = Json::Obj(vec![(s.to_string(), Json::Str(s.to_string()))]);
        assert_eq!(from_str(&v.encode()).unwrap(), v, "string {s:?}");
        assert_eq!(from_str(&v.encode_pretty()).unwrap(), v, "pretty {s:?}");
    }
}

#[test]
fn duplicate_object_keys_are_preserved() {
    // `Obj` is an ordered key/value list, not a map: duplicates are a
    // legal (if discouraged) JSON shape and must survive unchanged.
    let v = Json::Obj(vec![
        ("k".to_string(), Json::UInt(1)),
        ("k".to_string(), Json::UInt(2)),
    ]);
    assert_eq!(from_str(&v.encode()).unwrap(), v);
}
