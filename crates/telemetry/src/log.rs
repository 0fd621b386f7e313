//! Leveled, coded log events.
//!
//! Instead of ad-hoc `eprintln!` calls scattered through the live client
//! and server, hosts emit a [`LogCode`] at a [`Level`] through their
//! [`Recorder`](crate::Recorder). The event lands in the telemetry
//! stream (so chaos/reconnect actions show up in snapshots), and is
//! **quiet on stderr by default**: set `FF_LOG=error|warn|info|debug` to
//! additionally echo matching events to stderr while debugging. The
//! override is parsed once per process.

use std::sync::OnceLock;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The operation failed and was not retried transparently.
    Error,
    /// Degraded but self-healing (chaos actions, lost connections).
    Warn,
    /// Lifecycle milestones (connects, restarts).
    Info,
    /// High-volume diagnostics.
    Debug,
}

impl Level {
    /// Stable lowercase name used in snapshot JSON and stderr echoes.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// What happened, as a closed vocabulary (no hot-path strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // messages are self-describing; see `message()`
pub enum LogCode {
    ChaosDrop,
    ChaosDisconnect,
    ChaosStall,
    ChaosFailAll,
    ClientConnected,
    ClientDisconnected,
    Reconnected,
    DialFailed,
    ConnectionLost,
    ServerStarted,
    ServerStopped,
    BatchOverflow,
    ServerCrashed,
    ServerRecovered,
}

impl LogCode {
    /// Stable snake_case code used in snapshot JSON.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            LogCode::ChaosDrop => "chaos_drop",
            LogCode::ChaosDisconnect => "chaos_disconnect",
            LogCode::ChaosStall => "chaos_stall",
            LogCode::ChaosFailAll => "chaos_fail_all",
            LogCode::ClientConnected => "client_connected",
            LogCode::ClientDisconnected => "client_disconnected",
            LogCode::Reconnected => "reconnected",
            LogCode::DialFailed => "dial_failed",
            LogCode::ConnectionLost => "connection_lost",
            LogCode::ServerStarted => "server_started",
            LogCode::ServerStopped => "server_stopped",
            LogCode::BatchOverflow => "batch_overflow",
            LogCode::ServerCrashed => "server_crashed",
            LogCode::ServerRecovered => "server_recovered",
        }
    }

    /// Human-readable message for stderr echoes.
    pub(crate) const fn message(self) -> &'static str {
        match self {
            LogCode::ChaosDrop => "chaos: response dropped without reply",
            LogCode::ChaosDisconnect => "chaos: connection torn down",
            LogCode::ChaosStall => "chaos: response stalled",
            LogCode::ChaosFailAll => "chaos: failing all requests",
            LogCode::ClientConnected => "client connected",
            LogCode::ClientDisconnected => "client disconnected",
            LogCode::Reconnected => "connection re-established",
            LogCode::DialFailed => "dial failed, backing off",
            LogCode::ConnectionLost => "connection lost",
            LogCode::ServerStarted => "server listening",
            LogCode::ServerStopped => "server stopped",
            LogCode::BatchOverflow => "batch queue overflow, rejecting",
            LogCode::ServerCrashed => "server crashed",
            LogCode::ServerRecovered => "server recovered",
        }
    }
}

/// The `FF_LOG` threshold, parsed once per process. `None` = quiet.
fn stderr_threshold() -> Option<Level> {
    static THRESHOLD: OnceLock<Option<Level>> = OnceLock::new();
    *THRESHOLD.get_or_init(
        || match std::env::var("FF_LOG").ok()?.to_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        },
    )
}

/// Echo a log event to stderr when `FF_LOG` asks for its level. Called
/// on every `Recorder::log`, including on disabled recorders, so the
/// env override works even with telemetry off.
pub(crate) fn echo(level: Level, code: LogCode, t_us: u64) {
    if let Some(threshold) = stderr_threshold() {
        if level <= threshold {
            eprintln!(
                "[ff {} {:.3}s] {}",
                level.name(),
                t_us as f64 / 1e6,
                code.message()
            );
        }
    }
}
