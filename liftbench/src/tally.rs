//! The exactly-one-terminal-event rule, checked per connection: every
//! request sent must see one terminal event (`done`, `failed` or
//! `error`), and no request may see two.

use std::collections::BTreeSet;

use gtl_serve::Event;

/// Per-connection bookkeeping of request streams.
#[derive(Debug, Default)]
pub struct TerminalTally {
    open: BTreeSet<String>,
    closed: BTreeSet<String>,
    /// Open streams of tallies merged into this one.
    merged_lost: u64,
    /// Requests sent.
    pub sent: u64,
    /// Requests that saw their one terminal event.
    pub terminated: u64,
    /// Terminal events for a request already terminated.
    pub duplicates: u64,
    /// Events for an id never sent on this connection.
    pub strays: u64,
}

impl TerminalTally {
    /// Records a request sent under `id`.
    pub fn sent(&mut self, id: &str) {
        self.sent += 1;
        if !self.open.insert(id.to_string()) || self.closed.contains(id) {
            // A reused id makes every later event ambiguous.
            self.strays += 1;
        }
    }

    /// Records one received event; returns whether it closed `id`'s
    /// stream for the first time.
    pub fn observe(&mut self, event: &Event) -> bool {
        let Some(id) = event.id() else {
            // Only id-less events (stats, metrics, traces, id-less
            // errors) land here; an id-less error answers no request.
            if event.is_terminal() {
                self.strays += 1;
            }
            return false;
        };
        if self.open.contains(id) {
            if event.is_terminal() {
                self.open.remove(id);
                self.closed.insert(id.to_string());
                self.terminated += 1;
                return true;
            }
            return false;
        }
        if self.closed.contains(id) {
            if event.is_terminal() {
                self.duplicates += 1;
            } else {
                // Progress after the terminal event breaks the stream
                // contract just as a second terminal does.
                self.strays += 1;
            }
        } else {
            self.strays += 1;
        }
        false
    }

    /// Requests still waiting for their terminal event.
    pub fn lost(&self) -> u64 {
        self.open.len() as u64 + self.merged_lost
    }

    /// Folds another connection's tally into this one.
    pub fn merge(&mut self, other: &TerminalTally) {
        self.sent += other.sent;
        self.terminated += other.terminated;
        self.duplicates += other.duplicates;
        self.strays += other.strays;
        self.merged_lost += other.lost();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_serve::ErrorCode;

    fn done(id: &str) -> Event {
        Event::Done {
            id: id.into(),
            solution: "a = b".into(),
            attempts: 1,
            nodes: 1,
            elapsed_ms: 0,
            cached: true,
            trace_id: None,
        }
    }

    fn queued(id: &str) -> Event {
        Event::Queued {
            id: id.into(),
            position: 1,
            trace_id: None,
        }
    }

    #[test]
    fn one_terminal_per_request_is_clean() {
        let mut t = TerminalTally::default();
        t.sent("r1");
        assert!(!t.observe(&queued("r1")));
        assert!(t.observe(&done("r1")));
        t.sent("r2");
        let err = Event::Error {
            id: Some("r2".into()),
            code: ErrorCode::QueueFull,
            message: "full".into(),
            trace_id: None,
        };
        assert!(t.observe(&err));
        assert_eq!(
            (t.sent, t.terminated, t.lost(), t.duplicates, t.strays),
            (2, 2, 0, 0, 0)
        );
    }

    #[test]
    fn lost_duplicate_and_stray_events_are_violations() {
        let mut t = TerminalTally::default();
        t.sent("lost");
        assert_eq!(t.lost(), 1);
        t.sent("dup");
        assert!(t.observe(&done("dup")));
        assert!(
            !t.observe(&done("dup")),
            "second terminal does not close again"
        );
        assert!(!t.observe(&queued("dup")), "progress after the terminal");
        assert!(!t.observe(&done("never-sent")));
        assert_eq!(t.duplicates, 1);
        assert_eq!(t.strays, 2);
        assert_eq!(t.lost(), 1);
    }

    #[test]
    fn reused_ids_and_idless_errors_are_strays() {
        let mut t = TerminalTally::default();
        t.sent("a");
        t.sent("a");
        let idless = Event::Error {
            id: None,
            code: ErrorCode::BadJson,
            message: "bad".into(),
            trace_id: None,
        };
        assert!(!t.observe(&idless));
        assert_eq!(t.strays, 2);
    }

    #[test]
    fn merge_keeps_every_connections_counts() {
        let mut a = TerminalTally::default();
        a.sent("r1");
        let mut b = TerminalTally::default();
        b.sent("r1");
        b.observe(&done("r1"));
        b.observe(&done("r1"));
        a.merge(&b);
        assert_eq!((a.sent, a.terminated, a.duplicates, a.lost()), (2, 1, 1, 1));
    }
}
