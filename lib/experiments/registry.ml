type entry = {
  id : string;
  title : string;
  paper_claim : string;
  print : Format.formatter -> unit;
}

let all =
  [
    {
      id = "e1";
      title = "bandwidth: agent filtering vs client/server raw pull";
      paper_claim = "S1: agents conserve bandwidth by filtering at the data";
      print = E1_bandwidth.print_table;
    };
    {
      id = "e2";
      title = "flooding: naive cloning vs diffusion with visited folders";
      paper_claim = "S2: site-local folders bound the agent population";
      print = E2_flooding.print_table;
    };
    {
      id = "e3";
      title = "folders vs cabinets: mobility/access trade";
      paper_claim = "S2: folders move cheaply, cabinets access cheaply";
      print = E3_folders.print_table;
    };
    {
      id = "e4";
      title = "electronic cash: validation and audits";
      paper_claim = "S3: validation foils double spending; audits catch cheaters";
      print = E4_cash.print_table;
    };
    {
      id = "e5";
      title = "broker scheduling by load and capacity";
      paper_claim = "S4: brokers distribute requests by load and capacity";
      print = E5_broker.print_table;
    };
    {
      id = "e6";
      title = "rear guards under site crashes";
      paper_claim = "S5: rear guards let computations survive failures";
      print = E6_guards.print_table;
    };
    {
      id = "e7";
      title = "rexec transports: rsh vs tcp vs horus";
      paper_claim = "S6: the three rexec implementations trade cost and reliability";
      print = E7_transports.print_table;
    };
    {
      id = "e8";
      title = "applications: StormCast and agent mail";
      paper_claim = "S6: the metaphor carries real distributed applications";
      print = E8_apps.print_table;
    };
    {
      id = "e9";
      title = "content-addressed code cache vs cold code shipping";
      paper_claim =
        "S6: restart-style rexec re-ships code every hop; caching code at sites cuts the per-hop byte cost on revisiting itineraries";
      print = E9_codecache.print_table;
    };
    {
      id = "e10";
      title = "availability under chaos: partitions, loss and degradation";
      paper_claim =
        "S5/S7: rear guards keep computations available across the full failure surface, not just crashes";
      print = E10_chaos.print_table;
    };
    {
      id = "abl";
      title = "ablations: report staleness, guard tuning, horus group, code size";
      paper_claim = "design-choice probes behind E1/E5/E6/E7";
      print = Ablations.print_table;
    };
  ]

let find id = List.find_opt (fun e -> e.id = String.lowercase_ascii id) all

let run entries fmt = List.iter (fun e -> e.print fmt) entries

let run_all fmt = run all fmt
