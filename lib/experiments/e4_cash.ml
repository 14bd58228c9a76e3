module Mint = Cash.Mint
module Ecu = Cash.Ecu
module Audit = Cash.Audit
module Validator = Cash.Validator
module Kernel = Tacoma_core.Kernel
module Net = Netsim.Net
module Topology = Netsim.Topology
module Rng = Tacoma_util.Rng

type row_a = {
  attack_rate : float;
  purchases : int;
  validating_loss : int;
  naive_loss : int;
  detected : int;
}

type row_b = {
  customer : string;
  merchant : string;
  trials : int;
  correct_verdicts : int;
  verdict : string;
}

let price = 100

(* E4a: the same purchase stream hits a validating merchant and a naive one.
   An attacking customer presents a copy of a bill that was already spent. *)
let run_one_a ~rng ~purchases ~attack_rate =
  let mint = Mint.create ~secret:"e4" () in
  let validating_loss = ref 0 and naive_loss = ref 0 and detected = ref 0 in
  for _ = 1 to purchases do
    let bill = Mint.issue mint ~amount:price in
    let attacking = Rng.float rng < attack_rate in
    if attacking then begin
      (* the customer spends the bill somewhere else first; the merchant
         will be offered a copy *)
      match Mint.validate_and_reissue mint bill with
      | Ok _ -> ()
      | Error _ -> assert false
    end;
    (* validating merchant: consults the validation agent before serving *)
    (match Mint.validate_and_reissue mint bill with
    | Ok _fresh -> () (* paid in full, service rendered *)
    | Error _ -> incr detected (* refused: no service, no loss *));
    (* naive merchant: serves first, tries to bank the bill afterwards *)
    let banked =
      if attacking then Error Mint.Double_spent
      else Ok ()
    in
    (match banked with
    | Ok () -> ()
    | Error _ -> naive_loss := !naive_loss + price)
  done;
  {
    attack_rate;
    purchases;
    validating_loss = !validating_loss;
    naive_loss = !naive_loss;
    detected = !detected;
  }

let run_a ?(purchases = 500) ?(attack_rates = [ 0.0; 0.05; 0.1; 0.2; 0.4 ]) () =
  let rng = Rng.create 99L in
  List.map (fun attack_rate -> run_one_a ~rng ~purchases ~attack_rate) attack_rates

(* E4b: witnessed purchases over the network, judged by the court. *)
let expected_verdict customer merchant =
  match (customer, merchant) with
  | Audit.Honest, Audit.Honest -> Audit.Clean
  | Audit.Honest, Audit.Cheat -> Audit.Merchant_cheated
  (* a cheating customer bypasses the witness with an already-spent bill:
     the merchant refuses, nothing provable happened, the claim is
     dismissed *)
  | Audit.Cheat, _ -> Audit.No_transaction

let behavior_name = function Audit.Honest -> "honest" | Audit.Cheat -> "cheat"

let run_one_b ~trial ~customer ~merchant =
  let net = Net.create (Topology.full_mesh 4) in
  let k = Kernel.create net in
  let mint = Mint.create ~secret:"e4b" () in
  Validator.install k ~site:3 mint;
  Audit.install_witness k ~site:2;
  let bill = Mint.issue mint ~amount:price in
  (* a cheating customer's bill was already spent elsewhere *)
  (if customer = Audit.Cheat then
     match Mint.validate_and_reissue mint bill with Ok _ -> () | Error _ -> assert false);
  let tx = Printf.sprintf "e4b-%d" trial in
  ignore
    (Audit.purchase k ~tx ~amount:price ~bills:[ bill ]
       ~customer:("alice", "ka", customer) ~merchant:("bob", "kb", merchant)
       ~customer_site:0 ~merchant_site:1 ~witness_site:2 ~bank_site:3);
  Net.run net;
  Audit.judge
    ~keys:[ ("alice", "ka"); ("bob", "kb") ]
    ~log:(Audit.read_witness_log k ~site:2)
    ~tx

let run_b ?(trials = 10) () =
  let combos =
    [
      (Audit.Honest, Audit.Honest);
      (Audit.Honest, Audit.Cheat);
      (Audit.Cheat, Audit.Honest);
      (Audit.Cheat, Audit.Cheat);
    ]
  in
  List.map
    (fun (customer, merchant) ->
      let verdicts =
        List.init trials (fun trial -> run_one_b ~trial ~customer ~merchant)
      in
      let expected = expected_verdict customer merchant in
      {
        customer = behavior_name customer;
        merchant = behavior_name merchant;
        trials;
        correct_verdicts = List.length (List.filter (fun v -> v = expected) verdicts);
        verdict =
          (match verdicts with v :: _ -> Audit.verdict_name v | [] -> "-");
      })
    combos

type row_c = { fuel_cents : int; damage : int; survived : bool }

(* E4c: the run-away agent spams the site cabinet until its fuel runs out *)
let run_c ?(fuel_levels = [ 0; 1; 5; 20; 100 ]) () =
  List.map
    (fun fuel_cents ->
      let net = Net.create (Topology.line 2) in
      let k = Kernel.create net in
      let m = Mint.create ~secret:"e4c" () in
      Cash.Fuel.install k m ~steps_per_cent:100 ~courtesy:50;
      let bc = Tacoma_core.Briefcase.create () in
      Tacoma_core.Briefcase.set bc Tacoma_core.Briefcase.code_folder
        "while {1} {cabinet put SPAM x}";
      Cash.Fuel.grant m bc ~cents:fuel_cents;
      Kernel.launch k ~site:0 ~contact:"ag_script" bc;
      Net.run net;
      {
        fuel_cents;
        damage = Tacoma_core.Cabinet.size (Kernel.cabinet k 0) "SPAM";
        survived = Kernel.deaths k = 0;
      })
    fuel_levels

let print_table fmt =
  let rows_a = run_a () in
  Table.render fmt
    ~title:"E4a cash: merchant losses with and without the validation agent"
    ~header:[ "attack rate"; "purchases"; "validating loss"; "naive loss"; "detected" ]
    (List.map
       (fun r ->
         [
           Table.F2 r.attack_rate;
           Table.I r.purchases;
           Table.I r.validating_loss;
           Table.I r.naive_loss;
           Table.I r.detected;
         ])
       rows_a);
  let rows_b = run_b () in
  Table.render fmt ~title:"E4b cash: court verdicts vs ground truth (witnessed exchanges)"
    ~header:[ "customer"; "merchant"; "trials"; "correct"; "verdict" ]
    (List.map
       (fun r ->
         [
           Table.S r.customer;
           Table.S r.merchant;
           Table.I r.trials;
           Table.I r.correct_verdicts;
           Table.S r.verdict;
         ])
       rows_b);
  let rows_c = run_c () in
  Table.render fmt
    ~title:"E4c cash as fuel: a run-away agent's damage is bounded by the money it carries"
    ~header:[ "fuel (cents)"; "junk entries written"; "survived" ]
    (List.map
       (fun r ->
         [ Table.I r.fuel_cents; Table.I r.damage; Table.S (if r.survived then "yes" else "no") ])
       rows_c)
