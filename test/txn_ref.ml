(* Reference recorder for [Brdb_txn.Txn]'s SSI read tracking: the
   representation the transaction record kept before its per-table vid
   buffers, a newest-first list per set plus a polymorphic hash set that
   keeps each list duplicate-free. The qcheck properties in test_txn.ml
   replay the same recordings into both and compare the results. *)

open Brdb_storage
module Txn = Brdb_txn.Txn

type t = {
  mutable reads : (string * int) list;
  reads_seen : (string * int, unit) Hashtbl.t;
  mutable predicates : Predicate.t list;
  predicates_seen : (Predicate.t, unit) Hashtbl.t;
}

let create () =
  {
    reads = [];
    reads_seen = Hashtbl.create 32;
    predicates = [];
    predicates_seen = Hashtbl.create 16;
  }

let record_read t ~table ~vid =
  let entry = (table, vid) in
  if not (Hashtbl.mem t.reads_seen entry) then begin
    Hashtbl.replace t.reads_seen entry ();
    t.reads <- entry :: t.reads
  end

let record_predicate t p =
  if not (Hashtbl.mem t.predicates_seen p) then begin
    Hashtbl.replace t.predicates_seen p ();
    t.predicates <- p :: t.predicates
  end

(* What [Manager.rollback_committed] does to the sets. *)
let reset t =
  t.reads <- [];
  Hashtbl.reset t.reads_seen;
  t.predicates <- [];
  Hashtbl.reset t.predicates_seen

let sorted_reads t = List.sort compare t.reads

(* A transaction's read set as a sorted [(table, vid)] list, with each
   pair once per occurrence (so a duplicate left in a set shows). *)
let reads_of_txn (txn : Txn.t) =
  List.concat_map
    (fun r ->
      let table = Txn.reads_table r and acc = ref [] in
      Txn.iter_vids (fun vid -> acc := (table, vid) :: !acc) r;
      !acc)
    txn.Txn.reads
  |> List.sort compare
