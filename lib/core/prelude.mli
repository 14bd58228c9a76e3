(** The standard agent library: TScript procs the kernel evaluates in
    every script activation before the agent's own code.  They package the idioms the paper's
    examples rely on:

    - [travel SITE ?CONTACT?] — re-ship this agent's source and jump;
    - [visited TAG] / [mark_visited TAG] — the §2 site-local visited-folder
      pattern that bounds flooding;
    - [remember KEY VALUE] / [recall KEY] — durable notes in the site
      cabinet (flushed, so they survive crashes);
    - [carry FOLDER VALUE...] — append several values to a folder;
    - [send_folder SITE AGENT FOLDER] — courier a folder somewhere;
    - [unvisited_neighbors] — neighbours not yet in the briefcase SITES
      folder. *)

val standard : string
(** The prelude source. *)
