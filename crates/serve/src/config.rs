//! Service configuration: defaults, environment overrides, and validation.
//!
//! A resident service must reject a bad environment instead of dying mid-
//! traffic, so every knob parses into a typed [`PbError`] — the same
//! fallible surface `SpGemm::try_from_env` uses.

use pb_spgemm::{Algorithm, PbError};

/// Address the server binds when `PB_SERVE_ADDR` is unset (port 0 = let the
/// kernel pick, which is what the in-process tests and benches want).
pub const DEFAULT_ADDR: &str = "127.0.0.1:0";

/// Catalog byte budget when `PB_SERVE_BUDGET_MB` is unset.
pub const DEFAULT_BUDGET_MB: usize = 256;

/// Worker threads when `PB_SERVE_WORKERS` is unset.
pub const DEFAULT_WORKERS: usize = 2;

/// Longest protocol line (in MiB) accepted when `PB_SERVE_MAX_LINE_MB` is
/// unset.  A client streaming bytes without a newline past this bound gets
/// an error response and is disconnected — otherwise a single connection
/// could grow the reactor's buffer without limit, bypassing the catalog
/// byte budget that bounds every other allocation.
pub const DEFAULT_MAX_LINE_MB: usize = 256;

/// Environment variable overriding the bind address.
pub const ADDR_ENV: &str = "PB_SERVE_ADDR";

/// Environment variable overriding the catalog byte budget (in MiB).
pub const BUDGET_ENV: &str = "PB_SERVE_BUDGET_MB";

/// Environment variable overriding the worker-thread count.
pub const WORKERS_ENV: &str = "PB_SERVE_WORKERS";

/// Environment variable overriding the maximum protocol line length (MiB).
pub const MAX_LINE_ENV: &str = "PB_SERVE_MAX_LINE_MB";

/// Environment variable enabling the slow-request log: any request handled
/// slower than this many milliseconds is reported on stderr together with
/// its span tree (when tracing is on).  Unset = no slow log.
pub const SLOW_MS_ENV: &str = "PB_SERVE_SLOW_MS";

/// Environment variable enabling the `load` op: the directory matrix files
/// may be loaded from.  Unset = the op is disabled (a server must opt in
/// to reading the filesystem on client request).
pub const LOAD_DIR_ENV: &str = "PB_SERVE_LOAD_DIR";

/// Configuration of one [`Server`](crate::Server) instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// `host:port` the TCP listener binds.
    pub addr: String,
    /// Catalog byte budget; storing past it evicts least-recently-used
    /// entries.
    pub budget_bytes: usize,
    /// Number of request-executing worker threads.
    pub workers: usize,
    /// Default algorithm for catalog engines (requests may override
    /// per-call).
    pub algorithm: Algorithm,
    /// Longest protocol line accepted before the connection is dropped
    /// with an error (bounds per-connection buffer growth).
    pub max_line_bytes: usize,
    /// Handling-latency threshold (milliseconds) above which a request is
    /// logged to stderr with its trace span tree; `None` disables the log.
    pub slow_ms: Option<u64>,
    /// Directory the `load` op may read matrix files from; `None` disables
    /// the op entirely (the service never touches the filesystem on client
    /// request unless the operator allowlisted a directory).
    pub load_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            budget_bytes: DEFAULT_BUDGET_MB << 20,
            workers: DEFAULT_WORKERS,
            algorithm: Algorithm::Auto,
            max_line_bytes: DEFAULT_MAX_LINE_MB << 20,
            slow_ms: None,
            load_dir: None,
        }
    }
}

impl ServeConfig {
    /// Builds the configuration from the environment, validating every
    /// `PB_*` knob the service depends on (including `PB_ALGORITHM`,
    /// `PB_SIMD` and `PB_OOC_BUDGET_MB` via [`pb_spgemm::validate_env`]) —
    /// a typed error instead of a panic on any malformed value.
    pub fn from_env() -> Result<Self, PbError> {
        pb_spgemm::validate_env()?;
        let mut config = ServeConfig::default();
        if let Ok(addr) = std::env::var(ADDR_ENV) {
            if addr.trim().is_empty() || !addr.contains(':') {
                return Err(PbError::InvalidEnv {
                    var: ADDR_ENV,
                    value: addr,
                    expected: "a host:port bind address",
                });
            }
            config.addr = addr.trim().to_string();
        }
        if let Ok(mb) = std::env::var(BUDGET_ENV) {
            match mb.trim().parse::<usize>() {
                Ok(n) if n >= 1 => config.budget_bytes = n << 20,
                _ => {
                    return Err(PbError::InvalidEnv {
                        var: BUDGET_ENV,
                        value: mb,
                        expected: "a positive catalog budget in MiB",
                    })
                }
            }
        }
        if let Ok(w) = std::env::var(WORKERS_ENV) {
            match w.trim().parse::<usize>() {
                Ok(n) if n >= 1 => config.workers = n,
                _ => {
                    return Err(PbError::InvalidEnv {
                        var: WORKERS_ENV,
                        value: w,
                        expected: "a positive worker count",
                    })
                }
            }
        }
        if let Ok(mb) = std::env::var(MAX_LINE_ENV) {
            match mb.trim().parse::<usize>() {
                Ok(n) if n >= 1 => config.max_line_bytes = n << 20,
                _ => {
                    return Err(PbError::InvalidEnv {
                        var: MAX_LINE_ENV,
                        value: mb,
                        expected: "a positive line limit in MiB",
                    })
                }
            }
        }
        if let Ok(ms) = std::env::var(SLOW_MS_ENV) {
            match ms.trim().parse::<u64>() {
                Ok(n) => config.slow_ms = Some(n),
                _ => {
                    return Err(PbError::InvalidEnv {
                        var: SLOW_MS_ENV,
                        value: ms,
                        expected: "a slow-request threshold in milliseconds",
                    })
                }
            }
        }
        if let Ok(dir) = std::env::var(LOAD_DIR_ENV) {
            let trimmed = dir.trim();
            if trimmed.is_empty() || !std::path::Path::new(trimmed).is_dir() {
                return Err(PbError::InvalidEnv {
                    var: LOAD_DIR_ENV,
                    value: dir,
                    expected: "an existing directory to serve matrix files from",
                });
            }
            config.load_dir = Some(std::path::PathBuf::from(trimmed));
        }
        if let Some(alg) = Algorithm::from_env()? {
            config.algorithm = alg;
        }
        Ok(config)
    }

    /// Sets the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the catalog byte budget directly.
    pub fn budget_bytes(mut self, bytes: usize) -> Self {
        self.budget_bytes = bytes;
        self
    }

    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the default engine algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the maximum accepted protocol line length in bytes.
    pub fn max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes.max(1);
        self
    }

    /// Sets the slow-request log threshold in milliseconds (`None` off).
    pub fn slow_ms(mut self, ms: Option<u64>) -> Self {
        self.slow_ms = ms;
        self
    }

    /// Allowlists a directory for the `load` op (`None` disables it).
    pub fn load_dir(mut self, dir: Option<std::path::PathBuf>) -> Self {
        self.load_dir = dir;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert_eq!(c.addr, DEFAULT_ADDR);
        assert_eq!(c.budget_bytes, DEFAULT_BUDGET_MB << 20);
        assert!(c.workers >= 1);
        assert_eq!(c.algorithm, Algorithm::Auto);
        assert_eq!(c.max_line_bytes, DEFAULT_MAX_LINE_MB << 20);
        assert_eq!(c.slow_ms, None);
        assert_eq!(c.load_dir, None);
    }

    #[test]
    fn builder_setters_apply() {
        let c = ServeConfig::default()
            .addr("0.0.0.0:9000")
            .budget_bytes(1 << 20)
            .workers(4)
            .algorithm(Algorithm::Pb)
            .max_line_bytes(4096)
            .slow_ms(Some(250))
            .load_dir(Some(std::env::temp_dir()));
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!(c.load_dir, Some(std::env::temp_dir()));
        assert_eq!(c.budget_bytes, 1 << 20);
        assert_eq!(c.workers, 4);
        assert_eq!(c.algorithm, Algorithm::Pb);
        assert_eq!(c.max_line_bytes, 4096);
        assert_eq!(c.slow_ms, Some(250));
    }
}
