//! The [`Recorder`] handle: a cloneable, optionally-attached record
//! sink, instantiated as [`Telemetry`] for a run's [`Event`] stream and
//! as [`ServiceTelemetry`](crate::ServiceTelemetry) for the training
//! service's [`ServiceRecord`](crate::ServiceRecord) stream.
//!
//! Disabled (the default) it is a `None` — emitting is a single branch
//! and the record constructor closure is never evaluated, so the launch
//! hot path allocates nothing and observes nothing. Enabled, all clones
//! share one ordered buffer behind an `Arc<Mutex<…>>`; every run event
//! is emitted on the host thread after worker results are merged in
//! DPU-index order, so a run's buffer order is deterministic and
//! engine-invariant.

use crate::event::Event;
use std::sync::{Arc, Mutex};

/// A handle to an (optional) stream of `E` records.
///
/// `Recorder::default()` is disabled and costs nothing. An enabled
/// handle created with [`Recorder::enabled`] can be cloned freely —
/// clones share the same buffer, which is how a `PimConfig` carried
/// into a `DpuSet` keeps feeding the stream the caller holds.
#[derive(Debug, Clone)]
pub struct Recorder<E> {
    sink: Option<Arc<Mutex<Vec<E>>>>,
}

/// A run's simulated event stream (DESIGN.md §11).
pub type Telemetry = Recorder<Event>;

impl<E> Recorder<E> {
    /// A disabled handle: emissions are no-ops, nothing is allocated.
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// An enabled handle with a fresh, empty buffer.
    pub fn enabled() -> Self {
        Self {
            sink: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// Whether records are being kept. Callers building expensive
    /// payloads (e.g. per-DPU span vectors) should gate the work on
    /// this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Appends a record. The closure is evaluated only when the handle
    /// is enabled, so constructing the record (and any allocation
    /// inside it) is free on the disabled path.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> E) {
        if let Some(sink) = &self.sink {
            let record = make();
            if let Ok(mut records) = sink.lock() {
                records.push(record);
            }
        }
    }

    /// Number of records so far (0 when disabled).
    pub fn len(&self) -> usize {
        self.sink
            .as_ref()
            .and_then(|sink| sink.lock().ok().map(|records| records.len()))
            .unwrap_or(0)
    }

    /// Whether no records exist (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all records, keeping the handle enabled.
    pub fn clear(&self) {
        if let Some(sink) = &self.sink {
            if let Ok(mut records) = sink.lock() {
                records.clear();
            }
        }
    }
}

impl<E: Clone> Recorder<E> {
    /// A snapshot of the records so far, in emission order. Empty for
    /// a disabled handle.
    pub fn records(&self) -> Vec<E> {
        self.sink
            .as_ref()
            .and_then(|sink| sink.lock().ok().map(|records| records.clone()))
            .unwrap_or_default()
    }
}

impl<E> Default for Recorder<E> {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Identity equality: two handles are equal when they are both disabled
/// or share the same buffer. This keeps `PimConfig`'s derived
/// `PartialEq` meaningful without comparing stream contents.
impl<E> PartialEq for Recorder<E> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.sink, &other.sink) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn disabled_never_evaluates_the_closure() {
        let t = Telemetry::disabled();
        let mut evaluated = false;
        t.emit(|| {
            evaluated = true;
            Event::Rollback { to_round: 0 }
        });
        assert!(!evaluated);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t, Telemetry::default());
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.emit(|| Event::Rollback { to_round: 7 });
        assert_eq!(t.len(), 1);
        assert_eq!(t.records(), clone.records());
        assert_eq!(t, clone);
        t.clear();
        assert!(clone.is_empty());
    }

    #[test]
    fn equality_is_identity_not_contents() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        assert_ne!(a, b); // both empty, but distinct buffers
        assert_eq!(Telemetry::disabled(), Telemetry::disabled());
        assert_ne!(a, Telemetry::disabled());
    }
}
