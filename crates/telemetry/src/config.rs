//! Telemetry configuration.

/// Configuration of the telemetry layer for one simulated run.
///
/// Telemetry is off by default: the recorder is a no-op sink selected once
/// at construction ([`crate::Telemetry::new`]), so a disabled run pays one
/// branch per instrumentation site and allocates nothing. Enabled or not,
/// telemetry is purely observational — it never feeds back into simulated
/// behaviour, and it is excluded from determinism digests exactly like
/// `ff_skipped_cycles`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record time series and events for this run.
    pub enabled: bool,
    /// Sampling epoch in compute cycles: one sample per series every
    /// `epoch_cycles` cycles.
    pub epoch_cycles: u64,
    /// Event ring-buffer capacity. Once full, further events increment the
    /// drop counter instead of growing the buffer.
    pub event_capacity: usize,
}

/// Default sampling epoch in compute cycles.
pub const DEFAULT_EPOCH_CYCLES: u64 = 1024;

/// Default event ring-buffer capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 16 * 1024;

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            epoch_cycles: DEFAULT_EPOCH_CYCLES,
            event_capacity: DEFAULT_EVENT_CAPACITY,
        }
    }
}

impl TelemetryConfig {
    /// An enabled configuration with the given sampling epoch (convenience
    /// for tests and examples).
    pub fn enabled_with_epoch(epoch_cycles: u64) -> Self {
        assert!(epoch_cycles > 0, "sampling epoch must be positive");
        TelemetryConfig {
            enabled: true,
            epoch_cycles,
            ..TelemetryConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let c = TelemetryConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.epoch_cycles, DEFAULT_EPOCH_CYCLES);
        assert_eq!(c.event_capacity, DEFAULT_EVENT_CAPACITY);
    }

    #[test]
    fn enabled_with_epoch_sets_epoch() {
        let c = TelemetryConfig::enabled_with_epoch(256);
        assert!(c.enabled);
        assert_eq!(c.epoch_cycles, 256);
    }
}
