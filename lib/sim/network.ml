type link = { latency_s : float; bandwidth_bps : float }

let lan_link = { latency_s = 0.0001; bandwidth_bps = 5e9 }

let wan_link = { latency_s = 0.050; bandwidth_bps = 55e6 }

type fault = { drop : float; duplicate : float; corrupt : float }

let no_fault = { drop = 0.; duplicate = 0.; corrupt = 0. }

module Make (P : sig
  type payload
end) =
struct
  type net = {
    clock : Clock.t;
    rng : Rng.t;
    default_link : link;
    links : (string * string, link) Hashtbl.t;
    faults : (string * string, fault) Hashtbl.t;
    mutable partitions : (string * string list) list;
        (** name -> members; a partition cuts every (member, non-member)
            pair in both directions. *)
    handlers : (string, src:string -> P.payload -> unit) Hashtbl.t;
    mutable delivered : int;
    mutable dropped : int;
    mutable duplicated : int;
    mutable corrupted : int;
    mutable bytes : int;
    (* payload transformer applied when the corruption fault fires; [None]
       leaves corruption a no-op (the rng draw still happens whenever the
       rate is non-zero, so installing a corrupter never shifts the
       schedule) *)
    mutable corrupter : (P.payload -> P.payload) option;
    mutable tap :
      (src:string -> dst:string -> size_bytes:int -> dropped:bool -> P.payload -> unit)
      option;
  }

  let create ~clock ~rng ~default_link =
    {
      clock;
      rng;
      default_link;
      links = Hashtbl.create 16;
      faults = Hashtbl.create 16;
      partitions = [];
      handlers = Hashtbl.create 16;
      delivered = 0;
      dropped = 0;
      duplicated = 0;
      corrupted = 0;
      bytes = 0;
      tap = None;
      corrupter = None;
    }

  let set_tap net f = net.tap <- Some f

  let set_corrupter net f = net.corrupter <- Some f

  let clock net = net.clock

  let set_link net ~src ~dst link = Hashtbl.replace net.links (src, dst) link

  let set_fault net ~src ~dst fault =
    if fault = no_fault then Hashtbl.remove net.faults (src, dst)
    else Hashtbl.replace net.faults (src, dst) fault

  let fault_for net ~src ~dst =
    match Hashtbl.find_opt net.faults (src, dst) with
    | Some f -> f
    | None -> no_fault

  let partition net ~name ~members =
    net.partitions <-
      (name, members) :: List.remove_assoc name net.partitions

  let heal net ~name = net.partitions <- List.remove_assoc name net.partitions

  let clear_faults net =
    Hashtbl.reset net.faults;
    net.partitions <- []

  let separated net ~src ~dst =
    List.exists
      (fun (_, members) ->
        List.mem src members <> List.mem dst members)
      net.partitions

  let register net ~name handler = Hashtbl.replace net.handlers name handler

  let unregister net ~name = Hashtbl.remove net.handlers name

  let link_for net ~src ~dst =
    match Hashtbl.find_opt net.links (src, dst) with
    | Some l -> l
    | None -> net.default_link

  let delay_for net ~src ~dst ~size_bytes =
    if String.equal src dst then 0.
    else
      let l = link_for net ~src ~dst in
      let transfer = float_of_int (8 * size_bytes) /. l.bandwidth_bps in
      (* ±10% latency jitter keeps event orderings realistic but, with a
         seeded rng, reproducible. *)
      let jitter = Rng.uniform net.rng ~lo:0.95 ~hi:1.05 in
      (l.latency_s *. jitter) +. transfer

  let deliver net ~src ~dst ~delay payload =
    Clock.schedule net.clock ~delay (fun () ->
        match Hashtbl.find_opt net.handlers dst with
        | None ->
            (* destination down (crashed/unregistered) at delivery time *)
            net.dropped <- net.dropped + 1
        | Some h ->
            net.delivered <- net.delivered + 1;
            h ~src payload)

  let send net ~src ~dst ~size_bytes payload =
    (* Rng draw order is load-bearing for reproducibility: the jitter draw
       (inside [delay_for]) always happens exactly as in a fault-free net;
       drop/duplicate draws only happen when the link has a non-zero fault
       rate, so configuring no faults leaves the event stream untouched. *)
    let delay = delay_for net ~src ~dst ~size_bytes in
    net.bytes <- net.bytes + size_bytes;
    let was_dropped =
      if separated net ~src ~dst then begin
        net.dropped <- net.dropped + 1;
        true
      end
      else begin
        let fault = fault_for net ~src ~dst in
        if fault.drop > 0. && Rng.float net.rng < fault.drop then begin
          net.dropped <- net.dropped + 1;
          true
        end
        else begin
          let payload =
            if fault.corrupt > 0. && Rng.float net.rng < fault.corrupt then
              match net.corrupter with
              | Some f ->
                  net.corrupted <- net.corrupted + 1;
                  f payload
              | None -> payload
            else payload
          in
          deliver net ~src ~dst ~delay payload;
          if fault.duplicate > 0. && Rng.float net.rng < fault.duplicate
          then begin
            net.duplicated <- net.duplicated + 1;
            (* the copy takes an independent jitter draw, so it can arrive
               before or after the original *)
            let delay' = delay_for net ~src ~dst ~size_bytes in
            deliver net ~src ~dst ~delay:delay' payload
          end;
          false
        end
      end
    in
    (* The tap observes after the outcome is decided and draws no rng, so
       installing one cannot perturb the fault schedule. *)
    (match net.tap with
    | Some f -> f ~src ~dst ~size_bytes ~dropped:was_dropped payload
    | None -> ());
    delay

  let delivered net = net.delivered

  let dropped net = net.dropped

  let duplicated net = net.duplicated

  let corrupted net = net.corrupted

  let bytes_sent net = net.bytes
end
