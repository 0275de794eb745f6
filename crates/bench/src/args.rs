//! `--flag value` parsing shared by every `hetctl` subcommand and every
//! row of the experiment table.

use std::fmt::Display;
use std::str::FromStr;

/// Levenshtein distance, for "did you mean" on a mistyped name.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (diagonal + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(above + 1);
            diagonal = above;
        }
    }
    row[b.len()]
}

/// The entry of `known` nearest to `name` by edit distance.
pub fn nearest<'a>(name: &str, known: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    known.into_iter().min_by_key(|k| edit_distance(name, k))
}

/// The parsed `--flag value` pairs of one command line.
pub struct Args {
    map: Vec<(String, String)>,
}

impl Args {
    /// Parses `--flag value` pairs. A flag outside `known` (groups of
    /// whitespace-separated flag names) is an error naming the nearest
    /// known flag, and a flag given twice is an error naming it, so
    /// neither a typo nor a leftover silently runs something else.
    pub fn parse(argv: &[String], known: &[&str]) -> Result<Args, String> {
        let known = || known.iter().flat_map(|group| group.split_whitespace());
        let mut args = Args { map: Vec::new() };
        for pair in argv.chunks(2) {
            let key = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", pair[0]))?;
            if !known().any(|k| k == key) {
                return Err(match nearest(key, known()) {
                    Some(k) => format!("unknown flag --{key} (did you mean --{k}?)"),
                    None => format!("unknown flag --{key} (this command takes no flags)"),
                });
            }
            if args.get(key).is_some() {
                return Err(format!("--{key} given more than once"));
            }
            let value = pair
                .get(1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            args.map.push((key.to_string(), value.clone()));
        }
        Ok(args)
    }

    /// The raw value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A comma-separated list flag.
    pub fn get_list<T: FromStr>(&self, key: &str, default: Vec<T>) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        self.get(key).map_or(Ok(default), |list| {
            list.split(',').map(|v| parse_flag(key, v.trim())).collect()
        })
    }

    /// The value of `--key` parsed as `T`, or `default` when absent.
    pub fn get_parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.get(key).map_or(Ok(default), |v| parse_flag(key, v))
    }

    /// A count that sizes something (workers, rows, iterations): `--key`
    /// as an unsigned integer, or `default` when absent; zero is an
    /// error naming the flag.
    pub fn get_positive<T: FromStr + From<u8> + PartialEq>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String>
    where
        T::Err: Display,
    {
        let n = self.get_parsed(key, default)?;
        positive(key, [&n])?;
        Ok(n)
    }

    /// A comma-separated list of such counts.
    pub fn get_positive_list<T: FromStr + From<u8> + PartialEq>(
        &self,
        key: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        let list = self.get_list(key, default)?;
        positive(key, &list)?;
        Ok(list)
    }
}

/// Rejects a zero among the values of `--key`.
fn positive<'a, T: From<u8> + PartialEq + 'a>(
    key: &str,
    values: impl IntoIterator<Item = &'a T>,
) -> Result<(), String> {
    if values.into_iter().any(|v| *v == T::from(0)) {
        return Err(format!("--{key} must be positive"));
    }
    Ok(())
}

/// `value` of `--key` parsed as `T`; a failure keeps the type's own
/// message.
fn parse_flag<T: FromStr>(key: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value
        .parse()
        .map_err(|e| format!("--{key}: cannot parse '{value}': {e}"))
}

/// The flags [`TraceArgs`] reads.
pub const TRACE_FLAGS: &str = "trace trace-chrome";

/// The `--trace OUT.jsonl` / `--trace-chrome OUT.json` flags, handled
/// identically everywhere: check [`TraceArgs::requested`], start/finish
/// the collector around the run, then [`TraceArgs::write`] the log to
/// every requested output.
pub struct TraceArgs {
    jsonl: Option<String>,
    chrome: Option<String>,
}

impl TraceArgs {
    /// Reads the two trace flags out of `args`.
    pub fn of(args: &Args) -> TraceArgs {
        TraceArgs {
            jsonl: args.get("trace").map(str::to_string),
            chrome: args.get("trace-chrome").map(str::to_string),
        }
    }

    /// True when either output was asked for.
    pub fn requested(&self) -> bool {
        self.jsonl.is_some() || self.chrome.is_some()
    }

    /// Starts the trace collector (when any output was requested) with
    /// the run's metadata; returns whether tracing is on.
    pub fn begin(&self, kind: &str, seed: u64) -> bool {
        if self.requested() {
            het_trace::start(vec![
                ("kind".to_string(), het_json::Json::Str(kind.to_string())),
                ("seed".to_string(), het_json::Json::UInt(seed)),
            ]);
        }
        self.requested()
    }

    /// Writes `log` to every requested output.
    pub fn write(&self, log: &het_trace::TraceLog) -> Result<(), String> {
        if let Some(p) = &self.jsonl {
            std::fs::write(p, log.to_jsonl()).map_err(|e| format!("--trace {p}: {e}"))?;
            eprintln!("[trace jsonl] {p}");
        }
        if let Some(p) = &self.chrome {
            std::fs::write(p, het_trace::chrome::to_chrome_trace(log))
                .map_err(|e| format!("--trace-chrome {p}: {e}"))?;
            eprintln!("[trace chrome] {p}");
        }
        Ok(())
    }
}
