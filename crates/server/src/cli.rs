//! The daemon's command line, shared by `abcdd` and `mjc serve`: one flag
//! parser ([`ServerConfig::from_args`]) and one help text
//! ([`SERVE_FLAGS`]), with the defaults of [`ServerConfig::new`].

use crate::server::ServerConfig;
use crate::transport::ListenAddr;
use abcd::{AnalysisCache, ChaosPlan};
use std::sync::Arc;
use std::time::Duration;

/// The help text of every flag [`ServerConfig::from_args`] accepts.
pub const SERVE_FLAGS: &str = "    --socket PATH      Unix-domain socket to listen on (same as
                       `--listen uds:PATH`)
    --listen ADDR      endpoint to listen on: `uds:/path/to.sock` or
                       `tcp:host:port` (`tcp:127.0.0.1:0` picks a free
                       port). Repeatable; all endpoints are served
                       concurrently by the same run queue.
    --workers N        request handlers (default: all host CPUs; clamped to
                       the available parallelism)
    --queue N          bounded admission queue; when it is full the
                       connection gets a queue-position reply
                       `{\"queued\":P,\"retry_after_ms\":...}` (default 8;
                       0 admits a connection only while a worker is idle)
    --jobs N           optimizer threads per request (default 1; clamped to
                       the available parallelism)
    --cache-bytes N    in-memory analysis-cache budget (default 64 MiB)
    --cache-dir DIR    also persist cache entries to DIR (content-addressed,
                       re-verified on load; corruption falls back to cold)
    --no-cache         disable the analysis cache entirely
    --request-timeout MS
                       default per-request deadline for requests that carry
                       no deadline_ms; tripping it FAILS OPEN (the module is
                       served unoptimized, every check kept)
    --io-timeout MS    socket read/write timeout per frame (default 30000;
                       0 disables)
    --stuck-after MS   supervision threshold: an in-flight request older
                       than this gets its connection kicked; 4x older gets
                       its worker detached and replaced (default 30000;
                       0 disables)
    --chaos PLAN       seeded fault injection, e.g.
                       `seed:42,worker_panic:20,disk_corrupt:10` (permille
                       rates; sites: worker_panic, disk_short, disk_corrupt,
                       disk_full, frame_truncate, frame_slow, disconnect)
";

impl ServerConfig {
    /// Parses the daemon's flags (see [`SERVE_FLAGS`]). Every endpoint of
    /// `--socket` and `--listen` is served, in argv order; at least one is
    /// required. A flag that is not given keeps [`ServerConfig::new`]'s
    /// default, except that `--workers` defaults to all host CPUs (it and
    /// `--jobs` are clamped to the available parallelism) and the
    /// analysis cache is on (in memory) unless `--no-cache` is given.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag without its value, a malformed value, no
    /// endpoint, or a `--cache-dir` that cannot be opened.
    pub fn from_args(args: &[String]) -> Result<ServerConfig, String> {
        let mut config = ServerConfig {
            listen: Vec::new(),
            workers: abcd::clamp_jobs(0),
            ..ServerConfig::new("")
        };
        let mut cache_bytes = abcd::cache::DEFAULT_CACHE_BYTES;
        let mut cache_dir = None;
        let mut no_cache = false;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            let mut value = || {
                args.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("`{flag}` needs a value"))
            };
            let count = |v: &str| {
                v.parse::<usize>()
                    .map_err(|_| format!("`{flag}` needs a count"))
            };
            // A zero timeout disables it.
            let ms = |v: &str| match v.parse() {
                Ok(0) => Ok(None),
                Ok(ms) => Ok(Some(Duration::from_millis(ms))),
                Err(_) => Err(format!("`{flag}` needs milliseconds")),
            };
            match flag {
                "--socket" => config.listen.push(ListenAddr::Uds(value()?.into())),
                "--listen" => {
                    let addr = ListenAddr::parse(value()?).map_err(|e| format!("--listen: {e}"))?;
                    config.listen.push(addr);
                }
                "--workers" => config.workers = abcd::clamp_jobs(count(value()?)?),
                "--queue" => config.queue = count(value()?)?,
                "--jobs" => config.jobs = abcd::clamp_jobs(count(value()?)?),
                "--cache-bytes" => cache_bytes = count(value()?)?,
                "--cache-dir" => cache_dir = Some(value()?),
                "--no-cache" => no_cache = true,
                "--request-timeout" => {
                    config.request_timeout = Some(ms(value()?)?.unwrap_or(Duration::ZERO));
                }
                "--io-timeout" => config.io_timeout = ms(value()?)?,
                "--stuck-after" => {
                    config.stuck_after = ms(value()?)?.unwrap_or(Duration::from_secs(86_400));
                }
                "--chaos" => {
                    let plan = ChaosPlan::parse(value()?).map_err(|e| format!("--chaos: {e}"))?;
                    config.chaos = Some(Arc::new(plan));
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if config.listen.is_empty() {
            return Err("at least one `--socket PATH` or `--listen ADDR` is required".to_string());
        }
        if !no_cache {
            let cache = match cache_dir {
                None => AnalysisCache::in_memory(cache_bytes),
                Some(dir) => AnalysisCache::with_dir(std::path::Path::new(dir), cache_bytes)
                    .map_err(|e| format!("--cache-dir {dir}: {e}"))?,
            };
            config.cache = Some(Arc::new(cache));
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        ServerConfig::from_args(&args)
    }

    #[test]
    fn defaults_equal_the_library_defaults() {
        let parsed = parse(&["--socket", "s.sock"]).unwrap();
        let library = ServerConfig::new("s.sock");
        assert_eq!(parsed.listen, library.listen);
        assert_eq!(parsed.queue, library.queue);
        assert_eq!(parsed.jobs, library.jobs);
        assert_eq!(parsed.request_timeout, library.request_timeout);
        assert_eq!(parsed.io_timeout, library.io_timeout);
        assert_eq!(parsed.stuck_after, library.stuck_after);
        assert!(parsed.chaos.is_none());
        assert_eq!(parsed.workers, abcd::clamp_jobs(0));
        let cache = parsed.cache.expect("the cache is on by default");
        assert_eq!(cache.stats().budget_bytes, abcd::cache::DEFAULT_CACHE_BYTES);
        assert!(parse(&["--socket", "s.sock", "--no-cache"])
            .unwrap()
            .cache
            .is_none());
    }

    #[test]
    fn flags_override_the_defaults() {
        let parsed = parse(&[
            "--socket",
            "s.sock",
            "--queue",
            "3",
            "--io-timeout",
            "0",
            "--stuck-after",
            "250",
            "--request-timeout",
            "40",
        ])
        .unwrap();
        assert_eq!(parsed.queue, 3);
        assert_eq!(parsed.io_timeout, None);
        assert_eq!(parsed.stuck_after, Duration::from_millis(250));
        assert_eq!(parsed.request_timeout, Some(Duration::from_millis(40)));
    }

    #[test]
    fn unknown_and_malformed_flags_are_errors() {
        for args in [
            &["--socket", "s.sock", "--bogus"][..],
            &["--socket", "s.sock", "--no-pre"][..],
            &["--socket", "s.sock", "--workers", "many"][..],
            &["--socket", "s.sock", "--queue"][..],
            &["--socket"][..],
            &[][..],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
        let err = parse(&["--socket", "s.sock", "--bogus"]).unwrap_err();
        assert!(err.contains("unknown flag `--bogus`"), "{err}");
    }

    /// The daemon has one run queue, so there are no shards to ask for.
    #[test]
    fn shards_is_an_unknown_flag() {
        let err = parse(&["--socket", "s.sock", "--shards", "2"]).unwrap_err();
        assert!(err.contains("unknown flag `--shards`"), "{err}");
    }

    #[test]
    fn socket_and_listen_keep_argv_order() {
        let parsed = parse(&[
            "--listen",
            "tcp:127.0.0.1:0",
            "--socket",
            "a.sock",
            "--listen",
            "uds:b.sock",
        ])
        .unwrap();
        assert_eq!(
            parsed.listen,
            [
                ListenAddr::parse("tcp:127.0.0.1:0").unwrap(),
                ListenAddr::Uds("a.sock".into()),
                ListenAddr::Uds("b.sock".into()),
            ]
        );
    }
}
