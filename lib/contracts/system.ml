open Brdb_storage

let bootstrap_statements ~orgs =
  [
    "CREATE TABLE IF NOT EXISTS pgorgs (org TEXT PRIMARY KEY)";
    "CREATE TABLE IF NOT EXISTS pgdeploy (id INT PRIMARY KEY, proposer TEXT, \
     kind TEXT, cname TEXT, body TEXT, status TEXT)";
    "CREATE TABLE IF NOT EXISTS pgdeployvotes (vid TEXT PRIMARY KEY, \
     deploy_id INT, org TEXT, vote TEXT, detail TEXT)";
    "CREATE TABLE IF NOT EXISTS pgusers (username TEXT PRIMARY KEY, pubkey TEXT)";
  ]
  @ List.map
      (fun org -> Printf.sprintf "INSERT INTO pgorgs VALUES (%s)" (Brdb_sql.Ast.sql_quote org))
      orgs

let admin_org user =
  match String.index_opt user '/' with
  | Some i when String.sub user (i + 1) (String.length user - i - 1) = "admin" ->
      Some (String.sub user 0 i)
  | _ -> None

let require_admin ctx =
  match admin_org (Api.invoker ctx) with
  | Some org -> org
  | None -> Api.fail (Printf.sprintf "%s is not an organization admin" (Api.invoker ctx))

let deploy_status ctx id =
  Api.set_local ctx "did" (Value.Int id);
  match Api.query1 ctx "SELECT status FROM pgdeploy WHERE id = :did" with
  | Some (Value.Text s) -> s
  | _ -> Api.fail (Printf.sprintf "deployment %d does not exist" id)

let vote ctx ~id ~org ~kind ~detail =
  Api.set_local ctx "vid" (Value.Text (Printf.sprintf "%d:%s:%s" id org kind));
  Api.set_local ctx "did" (Value.Int id);
  Api.set_local ctx "org" (Value.Text org);
  Api.set_local ctx "vote" (Value.Text kind);
  Api.set_local ctx "detail" (Value.Text detail);
  ignore
    (Api.execute ctx
       "INSERT INTO pgdeployvotes (vid, deploy_id, org, vote, detail) VALUES (:vid, :did, :org, :vote, :detail)")

let create_deploytx ctx =
  ignore (require_admin ctx);
  let _ : int = Api.arg_int ctx 1 in
  let kind = Api.arg_text ctx 2 in
  if not (List.mem kind [ "create"; "replace"; "drop" ]) then
    Api.fail "kind must be create, replace or drop";
  ignore (Api.arg_text ctx 3);
  (* Stage only — the body is installed by submit_deploytx after
     approvals. Validate procedural bodies early so a proposal that can
     never deploy is rejected up front. *)
  (if kind <> "drop" then
     match Determinism.parse_program (Api.arg_text ctx 4) with
     | Error (`Syntax e) -> Api.fail (Printf.sprintf "contract body invalid: %s" e)
     | Error (`Nondeterministic e) ->
         Api.fail (Printf.sprintf "determinism violation: %s" e)
     | Ok _ -> ());
  Api.set_local ctx "proposer" (Value.Text (Api.invoker ctx));
  ignore
    (Api.execute ctx
       "INSERT INTO pgdeploy (id, proposer, kind, cname, body, status) VALUES ($1, :proposer, $2, $3, $4, 'proposed')")

let approve_deploytx ctx =
  let org = require_admin ctx in
  let id = Api.arg_int ctx 1 in
  (match deploy_status ctx id with
  | "proposed" -> ()
  | s -> Api.fail (Printf.sprintf "deployment %d is %s" id s));
  vote ctx ~id ~org ~kind:"approve" ~detail:""

let reject_deploytx ctx =
  let org = require_admin ctx in
  let id = Api.arg_int ctx 1 in
  let reason = Api.arg_text ctx 2 in
  (match deploy_status ctx id with
  | "proposed" -> ()
  | s -> Api.fail (Printf.sprintf "deployment %d is %s" id s));
  vote ctx ~id ~org ~kind:"reject" ~detail:reason;
  Api.set_local ctx "did" (Value.Int id);
  ignore (Api.execute ctx "UPDATE pgdeploy SET status = 'rejected' WHERE id = :did")

let comment_deploytx ctx =
  let org = require_admin ctx in
  let id = Api.arg_int ctx 1 in
  let text = Api.arg_text ctx 2 in
  ignore (deploy_status ctx id);
  vote ctx ~id ~org ~kind:(Printf.sprintf "comment-%s" (Api.invoker ctx)) ~detail:text

let submit_deploytx ctx =
  ignore (require_admin ctx);
  let id = Api.arg_int ctx 1 in
  (match deploy_status ctx id with
  | "proposed" -> ()
  | s -> Api.fail (Printf.sprintf "deployment %d is %s" id s));
  Api.set_local ctx "did" (Value.Int id);
  (* Every organization must have approved (§3.7). *)
  let orgs = Api.query ctx "SELECT org FROM pgorgs ORDER BY org" in
  List.iter
    (fun row ->
      match row.(0) with
      | Value.Text org ->
          Api.set_local ctx "org" (Value.Text org);
          let n =
            Api.query1 ctx
              "SELECT COUNT(*) FROM pgdeployvotes WHERE deploy_id = :did AND org = :org AND vote = 'approve'"
          in
          if n = Some (Value.Int 0) then
            Api.fail (Printf.sprintf "organization %s has not approved deployment %d" org id)
      | _ -> ())
    orgs.Brdb_engine.Exec.rows;
  let fetch col =
    match Api.query1 ctx (Printf.sprintf "SELECT %s FROM pgdeploy WHERE id = :did" col) with
    | Some (Value.Text s) -> s
    | _ -> Api.fail "corrupt deployment row"
  in
  let kind = fetch "kind" and cname = fetch "cname" and body = fetch "body" in
  (match ctx.Api.hooks.Api.deploy ~kind ~name:cname ~body with
  | Ok () -> ()
  | Error e -> Api.fail (Printf.sprintf "deployment failed: %s" e));
  ignore (Api.execute ctx "UPDATE pgdeploy SET status = 'deployed' WHERE id = :did")

let set_user ctx ~remove =
  ignore (require_admin ctx);
  let name = Api.arg_text ctx 1 in
  let pubkey = if remove then None else Some (Api.arg_text ctx 2) in
  (match ctx.Api.hooks.Api.set_user ~name ~pubkey with
  | Ok () -> ()
  | Error e -> Api.fail e);
  Api.set_local ctx "uname" (Value.Text name);
  match pubkey with
  | None -> ignore (Api.execute ctx "DELETE FROM pgusers WHERE username = :uname")
  | Some pk ->
      Api.set_local ctx "pk" (Value.Text pk);
      let existing = Api.query1 ctx "SELECT COUNT(*) FROM pgusers WHERE username = :uname" in
      if existing = Some (Value.Int 0) then
        ignore (Api.execute ctx "INSERT INTO pgusers VALUES (:uname, :pk)")
      else ignore (Api.execute ctx "UPDATE pgusers SET pubkey = :pk WHERE username = :uname")

let register_all registry =
  let native name f = ignore (Registry.deploy registry ~name (Registry.Native f)) in
  native "create_deploytx" create_deploytx;
  native "approve_deploytx" approve_deploytx;
  native "reject_deploytx" reject_deploytx;
  native "comment_deploytx" comment_deploytx;
  native "submit_deploytx" submit_deploytx;
  native "create_user" (fun ctx -> set_user ctx ~remove:false);
  native "update_user" (fun ctx -> set_user ctx ~remove:false);
  native "delete_user" (fun ctx -> set_user ctx ~remove:true)
