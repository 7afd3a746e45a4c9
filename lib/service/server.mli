(** The guardrail serving daemon: one event-driven readiness loop
    multiplexing every connection over [Unix.select], feeding a
    {!Runtime.Pool} of worker domains.

    Connections use non-blocking sockets with incremental frame
    assembly, so hundreds can be live at once regardless of pool size.
    Requests pipelined on one connection may execute concurrently on
    the pool; replies are always flushed in arrival order. Admission
    control bounds in-flight work per connection and globally — excess
    requests are answered with [Busy_reply] immediately instead of
    queueing without bound.

    Malformed requests are answered with [Error_reply] and the daemon
    keeps serving; SHUTDOWN (or {!stop}, e.g. from a SIGINT handler)
    drains owed replies before {!run} returns. *)

(** Serving configuration. Build with {!Config.make};
    {!Config.default} is [make ()]. *)
module Config : sig
  type t = {
    pool_size : int;           (** worker domains executing requests *)
    backlog : int;
    read_timeout_s : float;    (** idle-connection timeout; 0. disables
                                   (and the shutdown drain grace falls
                                   back to 5 s) *)
    max_request_bytes : int;   (** request frames above this close the
                                   connection *)
    max_connections : int;     (** concurrent connections; excess stays
                                   in the listen backlog *)
    max_inflight : int;        (** admitted requests per connection;
                                   excess is answered [Busy_reply] *)
    max_inflight_global : int; (** admitted requests across all
                                   connections *)
  }

  (** Uniform constructor: pool 4, backlog 128, 30 s timeout, 64 MiB
      frames, 1024 connections, 32 in-flight per connection, 1024
      global. Raises [Invalid_argument] on a value no server
      could honour (non-positive sizes, negative timeout). *)
  val make :
    ?pool_size:int ->
    ?backlog:int ->
    ?read_timeout_s:float ->
    ?max_request_bytes:int ->
    ?max_connections:int ->
    ?max_inflight:int ->
    ?max_inflight_global:int ->
    unit ->
    t

  (** [make ()]. *)
  val default : t
end

type t

val create : ?config:Config.t -> Registry.t -> t

val registry : t -> Registry.t
val metrics : t -> Metrics.t
val config : t -> Config.t

(** Bind and listen; returns the actual address (useful with TCP port 0).
    A unix-domain path is unlinked first if it exists, and again on
    shutdown. *)
val bind : t -> Unix.sockaddr -> Unix.sockaddr

(** The event loop; returns after {!stop} (or a served SHUTDOWN request)
    once every owed reply has been flushed — or the drain grace period
    ([read_timeout_s], 5 s when that is 0) has passed — and the pool
    joined. Every exit path, including an exception, releases the
    listener, the connections and the bound unix-socket path. *)
val run : t -> unit

(** {!bind} + {!run}. *)
val serve : t -> Unix.sockaddr -> unit

(** Request a graceful stop. Async-signal-safe (sets an atomic flag and
    pokes the loop's self-pipe). *)
val stop : t -> unit

(** {!stop} plus joining the worker pool — for embedders that dispatch
    via {!handle_request} without ever entering {!run}. Idempotent, and
    a no-op after {!run} has returned. *)
val shutdown : t -> unit

(** Execute one request against the registry exactly as a connection
    would — per-request failures come back as [Error_reply], they never
    raise. Exposed for direct testing and in-process embedding. *)
val handle_request : t -> Protocol.request -> Protocol.response
