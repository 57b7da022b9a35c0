(** Odds and ends: order-theoretic properties of {!Value.compare_total},
    the Kafka reorder buffer, and governance vote edge cases. *)

module Value = Brdb_storage.Value
module B = Brdb_core.Blockchain_db
module Msg = Brdb_consensus.Msg
module Kafka = Brdb_consensus.Kafka
module Block = Brdb_ledger.Block
module Identity = Brdb_crypto.Identity
module Clock = Brdb_sim.Clock
module Rng = Brdb_sim.Rng

(* --- Value order is a total order -------------------------------------- *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1e6);
        map (fun s -> Value.Text s) small_string;
        map (fun b -> Value.Bool b) bool;
      ])

let arb_value = QCheck.make ~print:Value.to_string gen_value

let sign x = compare x 0

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare_total antisymmetric" ~count:500
    (QCheck.pair arb_value arb_value)
    (fun (a, b) -> sign (Value.compare_total a b) = -sign (Value.compare_total b a))

let prop_compare_transitive =
  QCheck.Test.make ~name:"compare_total transitive" ~count:500
    (QCheck.triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
      let ab = Value.compare_total a b and bc = Value.compare_total b c in
      if ab <= 0 && bc <= 0 then Value.compare_total a c <= 0 else true)

let prop_compare_reflexive =
  QCheck.Test.make ~name:"compare_total reflexive" ~count:200 arb_value
    (fun a -> Value.compare_total a a = 0)

let prop_encode_injective_on_compare =
  QCheck.Test.make ~name:"encode distinguishes unequal values" ~count:500
    (QCheck.pair arb_value arb_value)
    (fun (a, b) ->
      (* NaN-free generator: equal encodings imply equal total order *)
      if String.equal (Value.encode a) (Value.encode b) then
        Value.compare_total a b = 0
      else true)

(* --- Kafka reorder buffer ------------------------------------------------ *)

let test_kafka_out_of_order_records () =
  (* Feed records 2,0,1 directly to an orderer: it must apply them in
     offset order and cut one block of 3. *)
  let clock = Clock.create () in
  let rng = Rng.create ~seed:3 in
  let net = Msg.Net.create ~clock ~rng ~default_link:Brdb_sim.Network.lan_link in
  let delivered = ref [] in
  Msg.Net.register net ~name:"peer" (fun ~src:_ msg ->
      match msg with
      | Msg.Block_deliver b -> delivered := b :: !delivered
      | _ -> ());
  let identity = Identity.create "ord/k" in
  let _orderer =
    Kafka.create_orderer ~net ~name:"k-1" ~identity ~cluster:"nowhere"
      ~auth:(fun _ -> true) ~block_size:3 ~block_timeout:10. ~peers:[ "peer" ] ()
  in
  let client = Identity.create "c" in
  let tx i =
    Block.make_tx ~id:(Printf.sprintf "k-%d" i) ~identity:client ~contract:"noop"
      ~args:[]
  in
  let record offset i = Msg.Kafka_record { offset; entry = Msg.K_tx (tx i) } in
  List.iter
    (fun msg ->
      ignore (Msg.Net.send net ~src:"cluster" ~dst:"k-1" ~size_bytes:64 msg))
    [ record 2 2; record 0 0; record 1 1 ];
  ignore (Clock.run clock);
  match !delivered with
  | [ b ] ->
      Alcotest.(check (list string)) "offset order respected" [ "k-0"; "k-1"; "k-2" ]
        (List.map (fun t -> t.Block.tx_id) b.Block.txs)
  | bs -> Alcotest.failf "expected 1 block, got %d" (List.length bs)

(* --- governance vote edge cases ------------------------------------------- *)

let test_double_approval_rejected () =
  let net = B.create { (B.default_config ()) with B.block_size = 5; block_timeout = 0.2 } in
  let admin = B.admin net "org1" in
  let gov contract args =
    let id = B.submit net ~user:admin ~contract ~args in
    B.settle net;
    B.status net id
  in
  (match
     gov "create_deploytx"
       [ Value.Int 1; Value.Text "create"; Value.Text "c"; Value.Text "SELECT 1" ]
   with
  | Some B.Committed -> ()
  | _ -> Alcotest.fail "proposal failed");
  (match gov "approve_deploytx" [ Value.Int 1 ] with
  | Some B.Committed -> ()
  | _ -> Alcotest.fail "first approval failed");
  (* the same org approving twice violates the vote table's primary key *)
  match gov "approve_deploytx" [ Value.Int 1 ] with
  | Some (B.Aborted _) -> ()
  | _ -> Alcotest.fail "double approval should abort"

let suites =
  [
    ( "misc.value-order",
      [
        QCheck_alcotest.to_alcotest prop_compare_antisymmetric;
        QCheck_alcotest.to_alcotest prop_compare_transitive;
        QCheck_alcotest.to_alcotest prop_compare_reflexive;
        QCheck_alcotest.to_alcotest prop_encode_injective_on_compare;
      ] );
    ("misc.kafka", [ Alcotest.test_case "reorder buffer" `Quick test_kafka_out_of_order_records ]);
    ("misc.governance", [ Alcotest.test_case "double approval" `Quick test_double_approval_rejected ]);
  ]
