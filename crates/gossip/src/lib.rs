//! # cs-gossip — cycle-driven gossip simulator and aggregation protocols
//!
//! The distribution substrate of the Chiaroscuro reproduction. The paper runs
//! its engine inside Peersim's cycle-driven model ("Chiaroscuro … implements
//! Peersim's `nextCycle` method by the core of its execution sequence"); this
//! crate is that simulator, built from scratch:
//!
//! * [`network::Network`]: a population of protocol instances advanced in
//!   randomized order one cycle at a time, with uniform peer sampling
//!   ([`overlay::Overlay`]), crash/recovery and message-drop injection
//!   ([`failure::FailureModel`]), and message/byte accounting
//!   ([`traffic::TrafficStats`]);
//! * [`pushsum`]: Kempe-Dobra-Gehrke push-sum over plaintext vectors — the
//!   gossip aggregation whose "approximation error … is guaranteed to
//!   converge to zero exponentially fast" (paper §II-A). A whole
//!   population's run is also a draw and a replay:
//!   [`network::Network::draw_cycles`] draws the exchanges, and
//!   [`pushsum::PushSumBlocks`] replays them slot block by slot block on
//!   several threads, bit for bit what `run_cycles` computes;
//! * [`homomorphic_pushsum`]: the paper's key building block, "a gossip sum
//!   algorithm working on additively-homomorphic encrypted data". Push-sum's
//!   halving cannot touch an encrypted value, so a node holds `(C, k)` with
//!   plaintext meaning `Dec(C)/2^k`: halving increments `k` (free) and
//!   addition aligns denominators with homomorphic power-of-two scalings
//!   (DESIGN.md §3.1);
//! * [`coalescence`]: an exactly-once merge-and-forward aggregation kept as
//!   an ablation baseline.
//!
//! Execution without global rounds is not simulated here: the `cs_net`
//! substrates (sharded executor, TCP loopback, `cs_node` cluster)
//! run the same push-sum code with every node on its own clock.

//! ## Example: averaging 32 values with push-sum
//!
//! ```
//! use cs_gossip::pushsum::{max_relative_error, PushSumNode};
//! use cs_gossip::{FailureModel, Network, Overlay};
//!
//! let nodes: Vec<PushSumNode> = (0..32)
//!     .map(|i| PushSumNode::new(vec![i as f64], 1.0))
//!     .collect();
//! let mut net = Network::new(nodes, Overlay::Full, FailureModel::none(), 7);
//! net.run_cycles(30);
//! assert!(max_relative_error(net.nodes(), &[15.5]) < 1e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalescence;
pub mod failure;
pub mod homomorphic_pushsum;
pub mod network;
pub mod overlay;
pub mod pushsum;
pub mod traffic;

pub use failure::FailureModel;
pub use network::{CycleProtocol, ExchangeCtx, Network, NodeId};
pub use overlay::Overlay;
pub use traffic::TrafficStats;
