//! The process's inputs from the environment, read once where it starts.
//!
//! This is the only file that reads an environment variable, and
//! [`Config::from_env`] has two callers, the two process boundaries:
//! `mlcask_server`'s `main` and the test harness's
//! `mlcask_workloads::scenario::harness_store`. Everything below them takes
//! its inputs as arguments. README → "Environment" has the table.

use crate::trace::DEFAULT_CAPACITY;
use std::time::Duration;

/// Blob-cache budget when `MLCASK_CACHE_BYTES` is unset: 128 MiB.
pub const DEFAULT_CACHE_BYTES: u64 = 128 * 1024 * 1024;

/// Where the test harness keeps a scenario's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// An in-memory backend.
    Mem,
    /// A cask in a scratch directory.
    Cask,
}

/// What the six `MLCASK_*` names said, or their defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// `MLCASK_BACKEND`: `mem` (default) or `cask`.
    pub store: StoreKind,
    /// `MLCASK_CACHE_BYTES`: blob-cache budget; `None` (from `0`) is no cache.
    pub cache_bytes: Option<u64>,
    /// `MLCASK_TRACE`: where the daemon leaves a chrome-trace on exit.
    pub trace_path: Option<String>,
    /// `MLCASK_OBS_SPANS`: `1`/`on`/`true` (default) or `0`/`off`/`false`.
    pub spans: bool,
    /// `MLCASK_OBS_CAPACITY`: flight-recorder ring capacity.
    pub capacity: usize,
    /// `MLCASK_OBS_SLOW_MS`: log spans at least this slow; `None` (from `0`,
    /// the default) logs none.
    pub slow_threshold: Option<Duration>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            store: StoreKind::Mem,
            cache_bytes: Some(DEFAULT_CACHE_BYTES),
            trace_path: None,
            spans: true,
            capacity: DEFAULT_CAPACITY,
            slow_threshold: None,
        }
    }
}

impl Config {
    /// The configuration the `(name, value)` pairs describe. An absent or
    /// empty name keeps its default and names outside the six are skipped;
    /// a value that cannot be read is an error naming the variable and the
    /// value, never a silent default.
    pub(crate) fn parse(vars: impl Iterator<Item = (String, String)>) -> Result<Config, String> {
        let mut cfg = Config::default();
        for (name, value) in vars {
            let v = value.trim();
            if v.is_empty() {
                continue;
            }
            let bad = |expected: &str| format!("{name}={value:?}: expected {expected}");
            let number = || v.parse::<u64>().map_err(|_| bad("a non-negative integer"));
            match name.as_str() {
                "MLCASK_BACKEND" => {
                    cfg.store = match v {
                        "mem" => StoreKind::Mem,
                        "cask" => StoreKind::Cask,
                        _ => return Err(bad("`mem` or `cask`")),
                    }
                }
                "MLCASK_CACHE_BYTES" => cfg.cache_bytes = Some(number()?).filter(|&n| n > 0),
                "MLCASK_TRACE" => cfg.trace_path = Some(value),
                "MLCASK_OBS_SPANS" => {
                    cfg.spans = match v {
                        "1" | "on" | "true" => true,
                        "0" | "off" | "false" => false,
                        _ => return Err(bad("`1`/`on`/`true` or `0`/`off`/`false`")),
                    }
                }
                "MLCASK_OBS_CAPACITY" => {
                    cfg.capacity = usize::try_from(number()?).map_err(|_| bad("a ring capacity"))?
                }
                "MLCASK_OBS_SLOW_MS" => {
                    cfg.slow_threshold = Some(number()?)
                        .filter(|&ms| ms > 0)
                        .map(Duration::from_millis)
                }
                _ => {}
            }
        }
        Ok(cfg)
    }

    /// `Config::parse` over the process environment. (`vars_os`, because
    /// `std::env::vars` panics on a bystander that is not Unicode.)
    pub fn from_env() -> Result<Config, String> {
        Self::parse(std::env::vars_os().filter_map(|(name, value)| {
            Some((
                name.into_string().ok()?,
                value.to_string_lossy().into_owned(),
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per (name, kind of value): what `parse` makes of that pair
    /// alone. `None` rows must be rejected with a message that names the
    /// variable and quotes the value.
    #[test]
    fn parse_reads_each_name_or_says_why_not() {
        let default = Config::default;
        let ms = Duration::from_millis;
        #[rustfmt::skip]
        let rows: Vec<(&str, Option<&str>, Option<Config>)> = vec![
            ("MLCASK_BACKEND", None, Some(default())),
            ("MLCASK_BACKEND", Some(""), Some(default())),
            ("MLCASK_BACKEND", Some("mem"), Some(default())),
            ("MLCASK_BACKEND", Some("cask"), Some(Config { store: StoreKind::Cask, ..default() })),
            ("MLCASK_BACKEND", Some("csak"), None),
            ("MLCASK_CACHE_BYTES", None, Some(default())),
            ("MLCASK_CACHE_BYTES", Some(""), Some(default())),
            ("MLCASK_CACHE_BYTES", Some("4096"), Some(Config { cache_bytes: Some(4096), ..default() })),
            ("MLCASK_CACHE_BYTES", Some(" 4096\n"), Some(Config { cache_bytes: Some(4096), ..default() })),
            ("MLCASK_CACHE_BYTES", Some("0"), Some(Config { cache_bytes: None, ..default() })),
            ("MLCASK_CACHE_BYTES", Some("128MB"), None),
            ("MLCASK_CACHE_BYTES", Some("-1"), None),
            ("MLCASK_TRACE", None, Some(default())),
            ("MLCASK_TRACE", Some(""), Some(default())),
            ("MLCASK_TRACE", Some("/t.jsonl"), Some(Config { trace_path: Some("/t.jsonl".into()), ..default() })),
            ("MLCASK_OBS_SPANS", None, Some(default())),
            ("MLCASK_OBS_SPANS", Some(""), Some(default())),
            ("MLCASK_OBS_SPANS", Some("1"), Some(default())),
            ("MLCASK_OBS_SPANS", Some("on"), Some(default())),
            ("MLCASK_OBS_SPANS", Some("true"), Some(default())),
            ("MLCASK_OBS_SPANS", Some("0"), Some(Config { spans: false, ..default() })),
            ("MLCASK_OBS_SPANS", Some("off"), Some(Config { spans: false, ..default() })),
            ("MLCASK_OBS_SPANS", Some("false"), Some(Config { spans: false, ..default() })),
            ("MLCASK_OBS_SPANS", Some("no"), None),
            ("MLCASK_OBS_CAPACITY", None, Some(default())),
            ("MLCASK_OBS_CAPACITY", Some(""), Some(default())),
            ("MLCASK_OBS_CAPACITY", Some("16"), Some(Config { capacity: 16, ..default() })),
            ("MLCASK_OBS_CAPACITY", Some("0"), Some(Config { capacity: 0, ..default() })),
            ("MLCASK_OBS_CAPACITY", Some("4k"), None),
            ("MLCASK_OBS_SLOW_MS", None, Some(default())),
            ("MLCASK_OBS_SLOW_MS", Some(""), Some(default())),
            ("MLCASK_OBS_SLOW_MS", Some("250"), Some(Config { slow_threshold: Some(ms(250)), ..default() })),
            ("MLCASK_OBS_SLOW_MS", Some("0"), Some(default())),
            ("MLCASK_OBS_SLOW_MS", Some("1.5"), None),
        ];
        for (name, value, expected) in rows {
            // A bystander rides along in every row: names outside the six
            // are none of `parse`'s business.
            let vars = [("PATH", "/bin")]
                .into_iter()
                .chain(value.map(|v| (name, v)))
                .map(|(k, v)| (k.to_string(), v.to_string()));
            match (Config::parse(vars), expected) {
                (got, Some(want)) => assert_eq!(got, Ok(want), "{name}={value:?}"),
                (Ok(got), None) => panic!("{name}={value:?} must be rejected, read as {got:?}"),
                (Err(msg), None) => {
                    let value = value.expect("an unset name cannot be invalid");
                    assert!(msg.contains(name) && msg.contains(value), "{msg}");
                }
            }
        }
    }

    #[test]
    fn the_defaults_are_the_documented_ones() {
        let cfg = Config::parse(std::iter::empty()).unwrap();
        assert_eq!(cfg, Config::default());
        assert_eq!(
            (cfg.store, cfg.cache_bytes),
            (StoreKind::Mem, Some(128 << 20))
        );
        assert_eq!((cfg.spans, cfg.capacity), (true, 4096));
        assert_eq!((cfg.trace_path, cfg.slow_threshold), (None, None));
    }
}
