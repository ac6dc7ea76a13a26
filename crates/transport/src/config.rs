//! Static peer roster for live deployments.
//!
//! A roster maps node ids to socket addresses and fixes the deployment's
//! deterministic key material: every process derives every node's long
//! term key pair from the shared `key_seed`, so public keys need no
//! online distribution step (the simulation-grade crypto makes this a
//! stand-in for a real PKI, not a security mechanism).
//!
//! The format is a minimal TOML subset, parsed here without any
//! dependency:
//!
//! ```text
//! # p2p-anon roster
//! key_seed = 42
//!
//! [nodes]
//! 0 = "127.0.0.1:47000"
//! 1 = "127.0.0.1:47001"
//!
//! [policy]            # optional: retry/backoff/degradation knobs
//! breaker_threshold = 4
//! queue_capacity = 256
//! ```
//!
//! The optional `[policy]` section sets any subset of
//! [`PolicyConfig`]'s fields; unset fields keep their defaults.

use crate::policy::PolicyConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::{KeyPair, PublicKey};
use simnet::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The static peer set of one deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct Roster {
    /// Shared seed all nodes derive key pairs from.
    pub key_seed: u64,
    /// Retry/backoff/degradation policy for the deployment's transports.
    pub policy: PolicyConfig,
    nodes: BTreeMap<u32, String>,
}

impl Roster {
    /// An empty roster with the given key seed and default policy.
    pub fn new(key_seed: u64) -> Self {
        Roster {
            key_seed,
            policy: PolicyConfig::default(),
            nodes: BTreeMap::new(),
        }
    }

    /// Add (or replace) a node's address.
    pub fn insert(&mut self, node: NodeId, addr: impl Into<String>) {
        self.nodes.insert(node.0, addr.into());
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the roster is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node's socket address, if listed.
    pub fn addr(&self, node: NodeId) -> Option<&str> {
        self.nodes.get(&node.0).map(String::as_str)
    }

    /// All listed node ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().map(|&id| NodeId(id))
    }

    /// A node's deterministic long-term key pair, derivable by every
    /// process that shares the roster.
    pub fn keypair(&self, node: NodeId) -> KeyPair {
        let seed = self
            .key_seed
            .wrapping_add((node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        KeyPair::generate(&mut StdRng::seed_from_u64(seed))
    }

    /// A node's public key (see [`Roster::keypair`]).
    pub fn public_key(&self, node: NodeId) -> PublicKey {
        self.keypair(node).public
    }

    /// Parse the TOML-subset roster format.
    pub fn parse(text: &str) -> Result<Roster, String> {
        #[derive(PartialEq)]
        enum Section {
            Top,
            Nodes,
            Policy,
        }
        let mut key_seed = None;
        let mut policy = PolicyConfig::default();
        let mut nodes = BTreeMap::new();
        let mut section = Section::Top;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section", lineno + 1))?
                    .trim();
                section = match name {
                    "nodes" => Section::Nodes,
                    "policy" => Section::Policy,
                    other => return Err(format!("line {}: unknown section `{other}`", lineno + 1)),
                };
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            match section {
                Section::Nodes => {
                    let id: u32 = key.parse().map_err(|_| {
                        format!("line {}: node id `{key}` is not a u32", lineno + 1)
                    })?;
                    let addr = value.trim_matches('"');
                    if addr.is_empty() {
                        return Err(format!("line {}: empty address", lineno + 1));
                    }
                    nodes.insert(id, addr.to_string());
                }
                Section::Policy => {
                    set_policy_key(&mut policy, key, value)
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                }
                Section::Top => {
                    if key == "key_seed" {
                        key_seed =
                            Some(value.parse().map_err(|_| {
                                format!("line {}: key_seed is not a u64", lineno + 1)
                            })?);
                    } else {
                        return Err(format!("line {}: unknown key `{key}`", lineno + 1));
                    }
                }
            }
        }
        Ok(Roster {
            key_seed: key_seed.ok_or("missing key_seed")?,
            policy,
            nodes,
        })
    }

    /// Read and parse a roster file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Roster, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        Roster::parse(&text)
    }

    /// Serialize back to the roster format (parseable by
    /// [`Roster::parse`]). The `[policy]` section is emitted only when
    /// the policy differs from the defaults.
    pub fn to_config(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "key_seed = {}", self.key_seed);
        let _ = writeln!(s, "\n[nodes]");
        for (id, addr) in &self.nodes {
            let _ = writeln!(s, "{id} = \"{addr}\"");
        }
        if self.policy != PolicyConfig::default() {
            let p = &self.policy;
            let _ = writeln!(s, "\n[policy]");
            let _ = writeln!(s, "reconnect_base_us = {}", p.reconnect_base_us);
            let _ = writeln!(s, "reconnect_max_us = {}", p.reconnect_max_us);
            let _ = writeln!(s, "reconnect_multiplier = {}", p.reconnect_multiplier);
            let _ = writeln!(s, "reconnect_jitter = {}", p.reconnect_jitter);
            let _ = writeln!(s, "frame_deadline_us = {}", p.frame_deadline_us);
            let _ = writeln!(s, "breaker_threshold = {}", p.breaker_threshold);
            let _ = writeln!(s, "breaker_cooldown_us = {}", p.breaker_cooldown_us);
            let _ = writeln!(s, "queue_capacity = {}", p.queue_capacity);
            let _ = writeln!(s, "ack_timeout_us = {}", p.ack_timeout_us);
            let _ = writeln!(s, "max_retries = {}", p.max_retries);
            let _ = writeln!(s, "seed = {}", p.seed);
        }
        s
    }
}

/// Apply one `[policy]` key to `policy`; errors name the offending key.
fn set_policy_key(policy: &mut PolicyConfig, key: &str, value: &str) -> Result<(), String> {
    fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("policy key `{key}`: bad value `{value}`"))
    }
    match key {
        "reconnect_base_us" => policy.reconnect_base_us = num(key, value)?,
        "reconnect_max_us" => policy.reconnect_max_us = num(key, value)?,
        "reconnect_multiplier" => policy.reconnect_multiplier = num(key, value)?,
        "reconnect_jitter" => policy.reconnect_jitter = num(key, value)?,
        "frame_deadline_us" => policy.frame_deadline_us = num(key, value)?,
        "breaker_threshold" => policy.breaker_threshold = num(key, value)?,
        "breaker_cooldown_us" => policy.breaker_cooldown_us = num(key, value)?,
        "queue_capacity" => policy.queue_capacity = num(key, value)?,
        "ack_timeout_us" => policy.ack_timeout_us = num(key, value)?,
        "max_retries" => policy.max_retries = num(key, value)?,
        "seed" => policy.seed = num(key, value)?,
        other => return Err(format!("unknown policy key `{other}`")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let mut roster = Roster::new(42);
        roster.insert(NodeId(0), "127.0.0.1:47000");
        roster.insert(NodeId(3), "127.0.0.1:47003");
        let text = roster.to_config();
        assert_eq!(Roster::parse(&text).unwrap(), roster);
    }

    #[test]
    fn parse_tolerates_comments_and_whitespace() {
        let text = r#"
            # deployment roster
            key_seed = 7   # shared

            [nodes]
            0 = "10.0.0.1:9"  # first
            2 = "10.0.0.2:9"
        "#;
        let roster = Roster::parse(text).unwrap();
        assert_eq!(roster.key_seed, 7);
        assert_eq!(roster.len(), 2);
        assert_eq!(roster.addr(NodeId(2)), Some("10.0.0.2:9"));
        assert_eq!(roster.addr(NodeId(1)), None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Roster::parse("key_seed = x").is_err());
        assert!(Roster::parse("nodes = 3").is_err());
        assert!(Roster::parse("[nodes\n0 = \"a:1\"").is_err());
        assert!(Roster::parse("key_seed = 1\n[nodes]\nzero = \"a:1\"").is_err());
        assert!(
            Roster::parse("[nodes]\n0 = \"a:1\"").is_err(),
            "missing seed"
        );
    }

    #[test]
    fn policy_section_round_trips_and_defaults() {
        // No [policy] section → defaults, and to_config stays minimal.
        let plain = Roster::parse("key_seed = 1\n[nodes]\n0 = \"a:1\"").unwrap();
        assert_eq!(plain.policy, PolicyConfig::default());
        assert!(!plain.to_config().contains("[policy]"));

        // Partial section: listed keys override, the rest stay default.
        let text = r#"
            key_seed = 1
            [nodes]
            0 = "a:1"
            [policy]
            breaker_threshold = 4
            queue_capacity = 64
            reconnect_multiplier = 1.5
            max_retries = 2
        "#;
        let roster = Roster::parse(text).unwrap();
        assert_eq!(roster.policy.breaker_threshold, 4);
        assert_eq!(roster.policy.queue_capacity, 64);
        assert_eq!(roster.policy.reconnect_multiplier, 1.5);
        assert_eq!(roster.policy.max_retries, 2);
        assert_eq!(
            roster.policy.ack_timeout_us,
            PolicyConfig::default().ack_timeout_us
        );
        // Non-default policies survive a serialize/parse round trip.
        assert_eq!(Roster::parse(&roster.to_config()).unwrap(), roster);
    }

    #[test]
    fn policy_section_rejects_bad_input() {
        assert!(Roster::parse("key_seed = 1\n[policy]\nnope = 3").is_err());
        assert!(Roster::parse("key_seed = 1\n[policy]\npath_bias = true").is_err());
        assert!(Roster::parse("key_seed = 1\n[policy]\nseed = x").is_err());
        assert!(Roster::parse("key_seed = 1\n[wat]\nseed = 1").is_err());
    }

    #[test]
    fn keypairs_are_deterministic_and_distinct() {
        let roster = Roster::new(9);
        let a1 = roster.keypair(NodeId(1));
        let a2 = roster.keypair(NodeId(1));
        let b = roster.keypair(NodeId(2));
        assert_eq!(a1.public, a2.public, "same node, same key");
        assert_ne!(a1.public, b.public, "different nodes, different keys");
        let other = Roster::new(10);
        assert_ne!(
            roster.public_key(NodeId(1)),
            other.public_key(NodeId(1)),
            "seed separates deployments"
        );
    }
}
