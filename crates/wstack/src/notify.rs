//! WS-Notification-style upgrade announcements.
//!
//! Section 7.2 of the paper lists ways a consumer can learn that a
//! component WS has been upgraded: a registry release link (see
//! [`crate::registry`]), a notification service, or an explicit callback
//! to subscribers. This module models the latter two with a simple topic
//! broker: providers publish [`UpgradeNotice`]s, consumers subscribe and
//! drain their per-subscription inbox.

use std::collections::HashMap;

/// An announcement that a new release of a service is available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpgradeNotice {
    /// The service being upgraded.
    pub service: String,
    /// The release consumers have been using.
    pub old_release: String,
    /// The newly available release.
    pub new_release: String,
    /// Where the new release can be invoked.
    pub new_uri: String,
}

/// A handle identifying one subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

/// A topic-per-service notification broker.
///
/// # Example
///
/// ```
/// use wsu_wstack::notify::{NotificationBroker, UpgradeNotice};
///
/// let mut broker = NotificationBroker::new();
/// let sub = broker.subscribe("Quote");
/// broker.publish(UpgradeNotice {
///     service: "Quote".into(),
///     old_release: "1.0".into(),
///     new_release: "1.1".into(),
///     new_uri: "http://node1/quote-v11".into(),
/// });
/// let notices = broker.drain(sub);
/// assert_eq!(notices.len(), 1);
/// assert_eq!(notices[0].new_release, "1.1");
/// ```
#[derive(Debug, Default)]
pub struct NotificationBroker {
    next_id: u64,
    // subscription -> (topic, inbox)
    subscriptions: HashMap<SubscriptionId, (String, Vec<UpgradeNotice>)>,
}

impl NotificationBroker {
    /// Creates an empty broker.
    pub fn new() -> NotificationBroker {
        NotificationBroker::default()
    }

    /// Subscribes to upgrade notices for `service`.
    pub fn subscribe(&mut self, service: &str) -> SubscriptionId {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        self.subscriptions
            .insert(id, (service.to_owned(), Vec::new()));
        id
    }

    /// Cancels a subscription. Returns `true` if it existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.subscriptions.remove(&id).is_some()
    }

    /// Publishes a notice to every matching subscription. Returns how many
    /// subscribers were notified.
    pub fn publish(&mut self, notice: UpgradeNotice) -> usize {
        let mut delivered = 0;
        for (topic, inbox) in self.subscriptions.values_mut() {
            if *topic == notice.service {
                inbox.push(notice.clone());
                delivered += 1;
            }
        }
        delivered
    }

    /// Removes and returns all pending notices for a subscription.
    /// Returns an empty vector for an unknown subscription.
    pub fn drain(&mut self, id: SubscriptionId) -> Vec<UpgradeNotice> {
        self.subscriptions
            .get_mut(&id)
            .map(|(_, inbox)| std::mem::take(inbox))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notice(service: &str) -> UpgradeNotice {
        UpgradeNotice {
            service: service.into(),
            old_release: "1.0".into(),
            new_release: "1.1".into(),
            new_uri: format!("http://node/{service}/1.1"),
        }
    }

    #[test]
    fn subscribe_publish_drain() {
        let mut broker = NotificationBroker::new();
        let a = broker.subscribe("X");
        let b = broker.subscribe("X");
        let other = broker.subscribe("Y");
        assert_eq!(broker.publish(notice("X")), 2);
        assert_eq!(broker.drain(a).len(), 1);
        assert_eq!(broker.drain(b).len(), 1);
        assert!(broker.drain(other).is_empty());
    }

    #[test]
    fn drain_empties_inbox() {
        let mut broker = NotificationBroker::new();
        let sub = broker.subscribe("X");
        broker.publish(notice("X"));
        assert_eq!(broker.drain(sub).len(), 1);
        assert!(broker.drain(sub).is_empty());
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut broker = NotificationBroker::new();
        let sub = broker.subscribe("X");
        assert!(broker.unsubscribe(sub));
        assert!(!broker.unsubscribe(sub));
        assert_eq!(broker.publish(notice("X")), 0);
    }

    #[test]
    fn unknown_subscription_drains_empty() {
        let mut broker = NotificationBroker::new();
        let sub = broker.subscribe("X");
        broker.unsubscribe(sub);
        assert!(broker.drain(sub).is_empty());
    }

    #[test]
    fn notices_preserve_order() {
        let mut broker = NotificationBroker::new();
        let sub = broker.subscribe("X");
        let mut n1 = notice("X");
        n1.new_release = "1.1".into();
        let mut n2 = notice("X");
        n2.new_release = "1.2".into();
        broker.publish(n1);
        broker.publish(n2);
        let drained = broker.drain(sub);
        assert_eq!(drained[0].new_release, "1.1");
        assert_eq!(drained[1].new_release, "1.2");
    }
}
