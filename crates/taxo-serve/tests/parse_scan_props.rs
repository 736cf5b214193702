//! Property tests for `parse_request`'s one-scan reader of canonical
//! score lines: on every line, `parse_request` returns exactly what the
//! `json::Value` tree path returns — the same request, or the same
//! error. The tree path is kept below as the reference, as it read
//! before the scan existed.
//!
//! Two generators feed it. One builds canonical score lines, the shape
//! `Client`, the load generators and the router emit. The other starts
//! from a canonical line and perturbs it so that it falls off the scan:
//! escapes, quotes, control bytes or non-ASCII in the query; `k` of 0,
//! with leading zeros or overflowing; ids of 20 or more digits,
//! negative, fractional or `null`; an unknown or escaped `tier`;
//! reordered, duplicated, escaped or missing keys; whitespace; trailing
//! bytes.

use proptest::__rand::rngs::StdRng;
use proptest::__rand::{RngCore, RngExt};
use proptest::prelude::*;
use taxo_serve::json::{self, Value};
use taxo_serve::protocol::parse_request;
use taxo_serve::{Request, Tier};

/// The tree path: `json::parse` plus the field extraction. Ingest lines
/// are never generated, so their branch is left out.
fn reference(line: &str) -> Result<Request, String> {
    let v = json::parse(line)?;
    let id = v.get("id").and_then(Value::as_u64);
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing \"kind\"")?;
    match kind {
        "score" => {
            let query = v
                .get("query")
                .and_then(Value::as_str)
                .ok_or("score needs a \"query\" string")?
                .to_owned();
            let k = match v.get("k") {
                None | Some(Value::Null) => None,
                Some(k) => Some(
                    k.as_u64()
                        .and_then(|k| usize::try_from(k).ok())
                        .filter(|&k| k >= 1)
                        .ok_or("\"k\" must be a positive integer")?,
                ),
            };
            let tier = match v.get("tier") {
                None | Some(Value::Null) => None,
                Some(t) => Some(
                    t.as_str()
                        .and_then(Tier::parse)
                        .ok_or("\"tier\" must be \"f32\" or \"int8\"")?,
                ),
            };
            let epoch = match v.get("epoch") {
                None | Some(Value::Null) => None,
                Some(e) => Some(
                    e.as_u64()
                        .ok_or("\"epoch\" must be a non-negative integer")?,
                ),
            };
            Ok(Request::Score {
                id,
                query,
                k,
                tier,
                epoch,
            })
        }
        "health" => Ok(Request::Health { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "ingest" => unreachable!("no ingest line is generated"),
        other => Err(format!("unknown kind {other:?}")),
    }
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.random_range(0..options.len())]
}

/// Query text without escapes: what real vocabulary names look like,
/// plus non-ASCII, which the scan passes through as it is.
fn plain_query(rng: &mut StdRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'z', 'q', '0', '9', ' ', '-', '&', '/', '}', 'ü', '雪', '🦀',
    ];
    let n = rng.random_range(0..10usize);
    (0..n)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

/// An integer as the encoder writes it, up to 19 digits.
fn plain_int(rng: &mut StdRng) -> String {
    match rng.random_range(0..4) {
        0 => "0".to_owned(),
        1 => rng.random_range(1u64..1000).to_string(),
        2 => "9999999999999999999".to_owned(),
        _ => rng
            .random_range(1u64..10_000_000_000_000_000_000)
            .to_string(),
    }
}

/// A JSON member as raw text: key and value exactly as they go on the
/// wire.
#[derive(Debug, Clone)]
struct Member {
    key: String,
    value: String,
}

fn member(key: &str, value: String) -> Member {
    Member {
        key: format!("\"{key}\""),
        value,
    }
}

/// The members of a canonical score line, in canonical order.
fn canonical_members(rng: &mut StdRng) -> Vec<Member> {
    let mut query = String::new();
    json::encode_str(&plain_query(rng), &mut query);
    let mut members = vec![
        member("kind", "\"score\"".to_owned()),
        member("id", plain_int(rng)),
        member("query", query),
    ];
    if rng.next_u64() & 1 == 1 {
        let k = match rng.random_range(0..3) {
            0 => "1".to_owned(),
            1 => rng.random_range(2u64..100).to_string(),
            _ => rng
                .random_range(1u64..10_000_000_000_000_000_000)
                .to_string(),
        };
        members.push(member("k", k));
    }
    if rng.next_u64() & 1 == 1 {
        members.push(member(
            "tier",
            pick(rng, &["\"f32\"", "\"int8\""]).to_owned(),
        ));
    }
    if rng.next_u64() & 1 == 1 {
        members.push(member("epoch", plain_int(rng)));
    }
    members
}

/// Writes the members as one object; with `spaced`, every separator
/// gets random JSON whitespace.
fn assemble(members: &[Member], spaced: bool, rng: &mut StdRng) -> String {
    let mut ws = || -> &'static str {
        if spaced {
            pick(rng, &["", " ", "\t", "\r\n"])
        } else {
            ""
        }
    };
    let mut line = String::from("{");
    for (i, m) in members.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(ws());
        line.push_str(&m.key);
        line.push_str(ws());
        line.push(':');
        line.push_str(ws());
        line.push_str(&m.value);
        line.push_str(ws());
    }
    line.push('}');
    line
}

/// Replaces the value of the member named `key`, adding the member at
/// the end when the line lacks it.
fn set_value(members: &mut Vec<Member>, key: &str, value: &str) {
    let quoted = format!("\"{key}\"");
    match members.iter_mut().find(|m| m.key == quoted) {
        Some(m) => m.value = value.to_owned(),
        None => members.push(member(key, value.to_owned())),
    }
}

/// Canonical score lines: the scan's own input.
#[derive(Debug, Clone, Copy)]
struct CanonicalLine;

impl Strategy for CanonicalLine {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let members = canonical_members(rng);
        assemble(&members, false, rng)
    }
}

/// Canonical score lines with one to three perturbations, built to make
/// the scan hand the line to the tree parser (a few, such as a member
/// swapped with itself, leave it canonical).
#[derive(Debug, Clone, Copy)]
struct OffScanLine;

impl Strategy for OffScanLine {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let mut members = canonical_members(rng);
        let mut spaced = false;
        let mut trailing = "";
        for _ in 0..rng.random_range(1..4) {
            match rng.random_range(0..12) {
                // The query needs decoding: escapes, a quote, a raw
                // control byte, or escaped non-ASCII.
                0 => {
                    let raw = pick(
                        rng,
                        &[
                            r#""a\"b""#,
                            r#""back\\slash""#,
                            r#""tab\there""#,
                            r#""sl\/ash""#,
                            r#""\u0041bc""#,
                            "\"raw\u{1}ctl\"",
                            "\"raw\ttab\"",
                            r#""\u00fc""#,
                            r#""bad\q""#,
                            r#""unterminated"#,
                        ],
                    );
                    set_value(&mut members, "query", raw);
                }
                1 => {
                    let k = pick(
                        rng,
                        &[
                            "0",
                            "00",
                            "01",
                            "007",
                            "-1",
                            "1.5",
                            "2.0",
                            "2e1",
                            "null",
                            "\"3\"",
                            "true",
                            "18446744073709551615",
                            "18446744073709551616",
                            "99999999999999999999999",
                        ],
                    );
                    set_value(&mut members, "k", k);
                }
                2 => {
                    let id = pick(
                        rng,
                        &[
                            "18446744073709551615",
                            "18446744073709551616",
                            "12345678901234567890123",
                            "-1",
                            "-0",
                            "1.0",
                            "3.25",
                            "1e2",
                            "null",
                            "007",
                            "\"5\"",
                            "false",
                        ],
                    );
                    set_value(&mut members, "id", id);
                }
                3 => {
                    let epoch = pick(
                        rng,
                        &[
                            "00",
                            "012",
                            "-4",
                            "0.5",
                            "7e0",
                            "null",
                            "\"2\"",
                            "[1]",
                            "{}",
                            "18446744073709551615",
                            "18446744073709551616",
                        ],
                    );
                    set_value(&mut members, "epoch", epoch);
                }
                4 => {
                    let tier = pick(
                        rng,
                        &[
                            "\"fp16\"",
                            "\"F32\"",
                            "\"int8 \"",
                            "\"\"",
                            r#""f\u00332""#,
                            r#""\u0069nt8""#,
                            "null",
                            "7",
                        ],
                    );
                    set_value(&mut members, "tier", tier);
                }
                // Two members trade places.
                5 => {
                    let a = rng.random_range(0..members.len());
                    let b = rng.random_range(0..members.len());
                    members.swap(a, b);
                }
                // A member appears twice; the tree keeps the last.
                6 => {
                    let mut dup = members[rng.random_range(0..members.len())].clone();
                    if rng.next_u64() & 1 == 1 {
                        dup.value = pick(rng, &["\"score\"", "\"other\"", "5", "null"]).to_owned();
                    }
                    let at = rng.random_range(0..members.len() + 1);
                    members.insert(at, dup);
                }
                7 => spaced = true,
                8 => trailing = pick(rng, &[" ", "\t", "\r\n", "x", "}", ",", "{}"]),
                // A key spelled with an escape, or another kind.
                9 => {
                    let at = rng.random_range(0..members.len());
                    let m = &mut members[at];
                    m.key = match m.key.as_str() {
                        "\"kind\"" => r#""\u006bind""#.to_owned(),
                        "\"id\"" => r#""\u0069d""#.to_owned(),
                        "\"query\"" => r#""quer\u0079""#.to_owned(),
                        "\"k\"" => r#""\u006b""#.to_owned(),
                        "\"tier\"" => r#""ti\u0065r""#.to_owned(),
                        _ => r#""epoc\u0068""#.to_owned(),
                    };
                }
                10 => {
                    let kind = pick(
                        rng,
                        &[
                            r#""sc\u006fre""#,
                            "\"health\"",
                            "\"stats\"",
                            "\"shutdown\"",
                            "\"scores\"",
                            "\"Score\"",
                            "null",
                        ],
                    );
                    set_value(&mut members, "kind", kind);
                }
                // A member is missing, or an unknown one rides along.
                _ => {
                    if members.len() > 1 && rng.next_u64() & 1 == 1 {
                        members.remove(rng.random_range(0..members.len()));
                    } else {
                        let at = rng.random_range(0..members.len() + 1);
                        members.insert(at, member("x", "[1,{\"y\":null}]".to_owned()));
                    }
                }
            }
        }
        let mut line = assemble(&members, spaced, rng);
        line.push_str(trailing);
        line
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every canonical score line parses, and to what the tree reads.
    #[test]
    fn canonical_score_lines_match_the_tree_path(line in CanonicalLine) {
        let scanned = parse_request(&line);
        prop_assert!(
            matches!(scanned, Ok(Request::Score { id: Some(_), .. })),
            "{line}: {scanned:?}"
        );
        prop_assert_eq!(scanned, reference(&line), "{}", line);
    }

    /// Lines that fall off the scan get exactly the tree path's result,
    /// whether that is a request or an error.
    #[test]
    fn off_scan_lines_match_the_tree_path(line in OffScanLine) {
        prop_assert_eq!(parse_request(&line), reference(&line), "{}", line);
    }
}
