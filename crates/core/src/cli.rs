//! Shared command-line flag handling for the `sixscope` binary.
//!
//! The parser is hand-rolled (no CLI dependency): flags are `--name value`
//! pairs — except the valueless booleans (`--json`, `--timing`) — and
//! everything else is positional. Every subcommand, and the `repro`
//! binary, parses through [`Flags::parse`] with an
//! explicit allow-list, so unknown flags fail the same way everywhere
//! (`unknown flag --x (expected one of: …)`), missing values fail the same
//! way everywhere (`flag --x needs a value`), and `--threads N` is
//! accepted uniformly.

use crate::json::Json;
use crate::Error;
use sixscope_telescope::IngestStats;
use sixscope_types::THREADS_ENV;

/// Flags that take no value: present means `true`.
const VALUELESS: &[&str] = &["json", "timing"];

/// JSON rendering of one [`IngestStats`] — shared by the binary's
/// `ingest`/`analyze` summaries and the serve daemon's checkpoints. Its
/// fields are the ingest report's recovery counters.
pub fn stats_json(stats: &IngestStats) -> Json {
    let fields = crate::ingest::stats_fields(stats).into_iter();
    let pairs = fields.map(|(key, _, n)| (key.to_string(), n.into_json()));
    Json::Obj(pairs.collect())
}

/// Parsed `--name value` flag pairs plus the remaining positionals.
#[derive(Debug)]
pub struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `args` against an allow-list of flag names (without the
    /// leading `--`). Unknown flags and flags missing their value are
    /// [`Error::Usage`].
    pub fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, Error> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !allowed.contains(&name) {
                    return Err(Error::Usage(format!(
                        "unknown flag --{name} (expected one of: {})",
                        allowed
                            .iter()
                            .map(|f| format!("--{f}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                }
                if VALUELESS.contains(&name) {
                    pairs.push((name.to_string(), "true".to_string()));
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| Error::Usage(format!("flag --{name} needs a value")))?;
                pairs.push((name.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { pairs, positional })
    }

    /// The raw value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses `--name`'s value with [`std::str::FromStr`]; a value that
    /// does not parse is [`Error::Usage`].
    pub fn parsed<T>(&self, name: &str) -> Result<Option<T>, Error>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| Error::Usage(format!("invalid --{name} value {v:?}: {e}"))),
        }
    }

    /// True when the valueless boolean flag `--name` was given.
    pub fn is_true(&self, name: &str) -> bool {
        matches!(self.get(name), Some("true") | Some("1"))
    }

    /// The `--threads` cap, if given. [`Flags::apply_threads`] also mirrors
    /// it into the `SIXSCOPE_THREADS` environment variable. Zero is
    /// rejected here rather than silently clamped downstream, so the flag's
    /// semantics match the builder's.
    pub fn threads(&self) -> Result<Option<usize>, Error> {
        match self.parsed("threads")? {
            Some(0) => Err(Error::Usage(
                "--threads must be at least 1 (0 workers cannot make progress)".into(),
            )),
            other => Ok(other),
        }
    }

    /// The `--chunk` streaming chunk size, if given. Zero is rejected here
    /// rather than silently clamped by `Pipeline::chunk_records`'s
    /// `.max(1)`, so the flag's semantics match the builder's.
    pub fn chunk(&self) -> Result<Option<usize>, Error> {
        match self.parsed("chunk")? {
            Some(0) => Err(Error::Usage("--chunk must be at least 1 record".into())),
            other => Ok(other),
        }
    }

    /// Mirrors `--threads` into `SIXSCOPE_THREADS` so every internal
    /// `num_threads(None)` call site (report rows, tables, figures) honors
    /// it; the explicit flag wins over an inherited environment value.
    /// Returns the cap for call sites that take it directly.
    pub fn apply_threads(&self) -> Result<Option<usize>, Error> {
        let threads = self.threads()?;
        if let Some(n) = threads {
            std::env::set_var(THREADS_ENV, n.to_string());
        }
        Ok(threads)
    }

    /// The non-flag arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_positionals_separate() {
        let f = Flags::parse(
            &argv(&["a.pcap", "--threads", "4", "--json", "b.pcap"]),
            &["threads", "json"],
        )
        .unwrap();
        assert_eq!(f.positional(), &["a.pcap", "b.pcap"]);
        assert_eq!(f.get("threads"), Some("4"));
        assert_eq!(f.threads().unwrap(), Some(4));
        assert!(f.is_true("json"));
        assert!(!Flags::parse(&argv(&["x"]), &["json"])
            .unwrap()
            .is_true("json"));
    }

    #[test]
    fn unknown_flag_lists_the_allowed_set() {
        let err = Flags::parse(&argv(&["--bogus", "1"]), &["seed", "scale"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("--bogus"), "{msg}");
        assert!(msg.contains("--seed"), "{msg}");
    }

    #[test]
    fn zero_threads_is_a_usage_error() {
        let f = Flags::parse(&argv(&["--threads", "0"]), &["threads"]).unwrap();
        let err = f.threads().unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--threads"), "{err}");
        let err = f.apply_threads().unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn zero_chunk_is_a_usage_error() {
        let f = Flags::parse(&argv(&["--chunk", "0"]), &["chunk"]).unwrap();
        let err = f.chunk().unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--chunk"), "{err}");
        let f = Flags::parse(&argv(&["--chunk", "512"]), &["chunk"]).unwrap();
        assert_eq!(f.chunk().unwrap(), Some(512));
    }

    #[test]
    fn missing_value_and_bad_value_are_usage_errors() {
        let err = Flags::parse(&argv(&["--seed"]), &["seed"]).unwrap_err();
        assert!(err.to_string().contains("needs a value"), "{err}");
        let f = Flags::parse(&argv(&["--seed", "nope"]), &["seed"]).unwrap();
        let err = f.parsed::<u64>("seed").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("invalid --seed"), "{err}");
    }
}
