//! genie-net — the network serving layer of the GENIE reproduction.
//!
//! Exposes the full [`genie_service::GenieService`] facade over a
//! versioned, length-prefixed, pipelined TCP protocol:
//!
//! * [`protocol`] — the normative wire specification (frame layout,
//!   handshake state machine, kind and error-code tables). Start here
//!   to implement a third-party client.
//! * [`frame`] — typed [`frame::Request`]/[`frame::Response`] values
//!   ⇄ frames (bytes through [`genie_core::codec`], the workspace's
//!   one bounds-checked codec), plus the [`frame::WireError`] taxonomy
//!   mirroring the in-process error types.
//! * [`server`] — [`server::NetServer`]: the accept loop and
//!   per-connection reader/writer pairs fronting a service, with
//!   graceful drain on shutdown.
//!
//! The client side lives in the `genie-client` crate; `benchmark/`'s
//! wire workloads drive both over loopback.

pub mod frame;
pub mod protocol;
pub mod server;

pub use frame::{
    decode_request, decode_response, encode_request, encode_response, read_frame, CollectionInfo,
    FrameProgress, FrameReadError, FrameReader, Request, Response, WireError,
    DEFAULT_MAX_FRAME_LEN, HANDSHAKE_REQUEST_ID, HELLO_MAGIC, PROTOCOL_VERSION,
};
pub use server::{NetServer, NetStats, ServerConfig, ServerHandle};
