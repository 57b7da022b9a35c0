open Brdb_util
module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

module VMap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_total
end)

type t = {
  schema : Schema.t;
  (* vid -> version; pruning replaces entries with None, keeping vids stable. *)
  heap : Version.t option Vec.t;
  (* Each index splits every key the same way as [live]/[dead] below. *)
  mutable indexes : Index.t list;
  mutable uniques : int list;
  (* Visibility index: [live] holds vids whose versions are not aborted and
     have no deleter yet; [dead] buckets retired (not aborted) vids by the
     block that deleted them. A snapshot scan at height [h] only needs
     [live] plus the buckets with key > h, so it skips dead history instead
     of filtering it per version. Membership, here and in the indexes, is
     maintained by the lifecycle functions below — raw writes to
     [deleter_block] or [xmin_aborted] elsewhere would desynchronize it
     (checked by {!check_visibility}). *)
  live : Bitset.t;
  mutable dead : ISet.t IMap.t;
  (* Cumulative count of versions physically removed by {!prune}
     (surfaced by the sys.tables view). *)
  mutable pruned_total : int;
}

let create schema =
  let t =
    {
      schema;
      heap = Vec.create ();
      indexes = [];
      uniques = [];
      live = Bitset.create ();
      dead = IMap.empty;
      pruned_total = 0;
    }
  in
  (match schema.Schema.pk_index with
  | Some column ->
      t.indexes <- [ Index.create ~column ];
      t.uniques <- [ column ]
  | None -> ());
  t

let schema t = t.schema

let name t = t.schema.Schema.table_name

let version_count t = Vec.length t.heap

let live_count t = Bitset.cardinal t.live

let find_version t vid =
  if vid < 0 || vid >= Vec.length t.heap then None else Vec.get t.heap vid

let get_version t vid =
  match find_version t vid with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Table.get_version: %d pruned" vid)

(* Index one version by its fields, as the lifecycle functions below
   would have left it: aborted versions stay out, retired ones sit under
   their deleter block. *)
let index_version idx (v : Version.t) =
  if not v.Version.xmin_aborted then begin
    let key = v.Version.values.(Index.column idx) in
    Index.add idx key v.Version.vid;
    if v.Version.deleter_block <> Version.unset_block then
      Index.retire idx key v.Version.vid ~block:v.Version.deleter_block
  end

let insert_version t ~xmin values =
  let vid = Vec.length t.heap in
  let v = Version.make ~vid ~xmin values in
  ignore (Vec.push t.heap (Some v));
  Bitset.add t.live vid;
  List.iter (fun idx -> index_version idx v) t.indexes;
  v

let iter_versions t f =
  Vec.iter (function Some v -> f v | None -> ()) t.heap

let find_index t column =
  List.find_opt (fun idx -> Index.column idx = column) t.indexes

let has_index t ~column = find_index t column <> None

let indexed_columns t = List.map Index.column t.indexes

let add_index t ~column ~unique =
  if not (has_index t ~column) then begin
    let idx = Index.create ~column in
    iter_versions t (index_version idx);
    t.indexes <- t.indexes @ [ idx ]
  end;
  if unique && not (List.mem column t.uniques) then
    t.uniques <- t.uniques @ [ column ]

let unique_columns t = t.uniques

(* --- version lifecycle --------------------------------------------------- *)

let dead_remove dead height vid =
  IMap.update height
    (function
      | None -> None
      | Some s ->
          let s = ISet.remove vid s in
          if ISet.is_empty s then None else Some s)
    dead

(* Each lifecycle event is one lookup per index; the key's entry is then
   updated in place. *)
let key_of idx (v : Version.t) = v.Version.values.(Index.column idx)

let remove_from_indexes t (v : Version.t) =
  List.iter (fun idx -> Index.remove idx (key_of idx v) v.Version.vid) t.indexes

let mark_deleted t (v : Version.t) ~xmax ~height =
  v.Version.xmax <- xmax;
  v.Version.deleter_block <- height;
  v.Version.claimants <- [];
  if not v.Version.xmin_aborted then begin
    Bitset.remove t.live v.Version.vid;
    t.dead <-
      IMap.update height
        (function
          | None -> Some (ISet.singleton v.Version.vid)
          | Some s -> Some (ISet.add v.Version.vid s))
        t.dead;
    List.iter (fun idx -> Index.retire idx (key_of idx v) v.Version.vid ~block:height) t.indexes
  end

let unmark_deleted t (v : Version.t) =
  let was = v.Version.deleter_block in
  v.Version.xmax <- 0;
  v.Version.deleter_block <- Version.unset_block;
  if not v.Version.xmin_aborted then begin
    if was <> Version.unset_block then begin
      t.dead <- dead_remove t.dead was v.Version.vid;
      List.iter (fun idx -> Index.unretire idx (key_of idx v) v.Version.vid) t.indexes
    end;
    Bitset.add t.live v.Version.vid
  end

let mark_aborted t (v : Version.t) =
  if not v.Version.xmin_aborted then begin
    v.Version.xmin_aborted <- true;
    if v.Version.deleter_block = Version.unset_block then
      Bitset.remove t.live v.Version.vid
    else t.dead <- dead_remove t.dead v.Version.deleter_block v.Version.vid;
    remove_from_indexes t v
  end

(* --- iteration ----------------------------------------------------------- *)

let iter_live t ~height f =
  (* Buckets with deleter <= height hold versions invisible at [height];
     only the (few, recent) buckets above it can still be visible. *)
  let _, _, recent = IMap.split height t.dead in
  let extra = IMap.fold (fun _ bucket acc -> ISet.union bucket acc) recent ISet.empty in
  Bitset.iter_union t.live (ISet.elements extra) (fun vid ->
      match Vec.get t.heap vid with Some v -> f v | None -> ())

let index t ~column =
  match find_index t column with
  | Some idx -> idx
  | None ->
      invalid_arg
        (Printf.sprintf "Table.index: no index on column %d of %s" column (name t))

type reader = int -> unit

let reader t f vid = match Vec.get t.heap vid with Some v -> f v | None -> ()

let iter_in reader idx ~height ~lo ~hi = Index.iter_range ~height idx ~lo ~hi reader

let probe reader idx ~height key = Index.iter_key ~height idx key reader

let iter_index ?(height = min_int) t ~column ~lo ~hi f =
  iter_in (reader t f) (index t ~column) ~height ~lo ~hi

let pk_lookup ?(height = min_int) t key f =
  match t.schema.Schema.pk_index with
  | None -> invalid_arg (Printf.sprintf "Table.pk_lookup: %s has no primary key" (name t))
  | Some column -> probe (reader t f) (index t ~column) ~height key

let prune t ~keep =
  let removed = ref 0 in
  Vec.iteri
    (fun vid slot ->
      match slot with
      | Some v when not (keep v) ->
          (* Aborted versions already left the visibility and key indexes. *)
          if not v.Version.xmin_aborted then begin
            if v.Version.deleter_block = Version.unset_block then
              Bitset.remove t.live vid
            else t.dead <- dead_remove t.dead v.Version.deleter_block vid;
            remove_from_indexes t v
          end;
          Vec.set t.heap vid None;
          incr removed
      | _ -> ())
    t.heap;
  t.pruned_total <- t.pruned_total + !removed;
  !removed

let pruned_total t = t.pruned_total

(* --- snapshot support (DESIGN.md §11) ------------------------------------- *)

let heap_slots t = Array.init (Vec.length t.heap) (Vec.get t.heap)

let index_specs t =
  List.map (fun idx -> (Index.column idx, List.mem (Index.column idx) t.uniques)) t.indexes

let restore ~schema ~slots ~indexes ~pruned_total =
  let t =
    {
      schema;
      heap = Vec.of_list (Array.to_list slots);
      indexes = [];
      uniques = [];
      live = Bitset.create ();
      dead = IMap.empty;
      pruned_total;
    }
  in
  (* Rebuild the visibility index from the restored version fields — the
     same classification {!check_visibility} validates against. *)
  Array.iteri
    (fun vid slot ->
      match slot with
      | None -> ()
      | Some (v : Version.t) ->
          if v.Version.vid <> vid then
            invalid_arg
              (Printf.sprintf "Table.restore: %s slot %d holds vid %d"
                 schema.Schema.table_name vid v.Version.vid);
          if not v.Version.xmin_aborted then
            if v.Version.deleter_block = Version.unset_block then
              Bitset.add t.live vid
            else
              t.dead <-
                IMap.update v.Version.deleter_block
                  (function
                    | None -> Some (ISet.singleton vid)
                    | Some s -> Some (ISet.add vid s))
                  t.dead)
    slots;
  (* Secondary structures last: indexes over the populated heap. *)
  List.iter (fun (column, unique) -> add_index t ~column ~unique) indexes;
  t

(* An index must hold exactly the per-key split the heap implies: the live
   vids, and the retired (deleter block, vid) pairs newest first; aborted
   vids nowhere. Returns the first key (in key order) where it does not. *)
let index_mismatch t idx =
  let expect = ref VMap.empty in
  iter_versions t (fun v ->
      if not v.Version.xmin_aborted then begin
        let key = key_of idx v in
        let live, retired = Option.value (VMap.find_opt key !expect) ~default:([], []) in
        expect :=
          VMap.add key
            (if v.Version.deleter_block = Version.unset_block then
               (v.Version.vid :: live, retired)
             else (live, (v.Version.deleter_block, v.Version.vid) :: retired))
            !expect
      end);
  let expected =
    List.map
      (fun (key, (live, retired)) ->
        (key, List.rev live, List.sort (fun a b -> compare b a) retired))
      (VMap.bindings !expect)
  in
  let rec first = function
    | [], [] -> None
    | (k, l, r) :: es, (k', l', r') :: gs
      when Value.compare_total k k' = 0 && l = l' && r = r' ->
        first (es, gs)
    | (k, _, _) :: _, _ | [], (k, _, _) :: _ -> Some k
  in
  first (expected, Index.entries idx)

let check_visibility t =
  let expect_live = ref ISet.empty and expect_dead = ref IMap.empty in
  Vec.iteri
    (fun vid slot ->
      match slot with
      | None -> ()
      | Some v ->
          if not v.Version.xmin_aborted then
            if v.Version.deleter_block = Version.unset_block then
              expect_live := ISet.add vid !expect_live
            else
              expect_dead :=
                IMap.update v.Version.deleter_block
                  (function
                    | None -> Some (ISet.singleton vid)
                    | Some s -> Some (ISet.add vid s))
                  !expect_dead)
    t.heap;
  let errors = ref [] in
  let live_now = ISet.of_list (Bitset.elements t.live) in
  if not (ISet.equal !expect_live live_now) then begin
    let diff a b = ISet.elements (ISet.diff a b) in
    errors :=
      Printf.sprintf "%s: live set mismatch (missing %s, stale %s)" (name t)
        (String.concat "," (List.map string_of_int (diff !expect_live live_now)))
        (String.concat "," (List.map string_of_int (diff live_now !expect_live)))
      :: !errors
  end;
  if not (IMap.equal ISet.equal !expect_dead t.dead) then
    errors := Printf.sprintf "%s: dead buckets mismatch" (name t) :: !errors;
  List.iter
    (fun idx ->
      match index_mismatch t idx with
      | None -> ()
      | Some key ->
          errors :=
            Printf.sprintf "%s: index on column %d disagrees with the heap at key %s"
              (name t) (Index.column idx) (Value.to_string key)
            :: !errors)
    t.indexes;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)
