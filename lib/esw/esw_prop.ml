let var_value model name = Esw_model.read_member model name

(* resolved once: a proposition is sampled at every statement *)
let reader model name = Minic.Exec.global_reader (Esw_model.exec model) name

let var_eq model ?prop_name name value =
  let prop_name =
    match prop_name with
    | Some n -> n
    | None -> Printf.sprintf "%s_eq_%d" name value
  in
  let read = reader model name in
  Proposition.make prop_name (fun () -> read () = value)

let var_pred model ~prop_name name predicate =
  let read = reader model name in
  Proposition.make prop_name (fun () -> predicate (read ()))

let in_function model func =
  let info = (Esw_model.derived model).C2sc.model_info in
  let id = Minic.Typecheck.func_id info func in
  let fname = reader model "fname" in
  Proposition.make ("in_" ^ func) (fun () -> fname () = id)

let entered_function model func =
  Proposition.rose ("entered_" ^ func) (in_function model func)
