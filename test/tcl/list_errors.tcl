# malformed lists: every list command reports a script error that catch traps
set s "\{a"
puts [catch {llength $s} m]
puts $m
puts [catch {lindex "\{a b" 0} m]
puts $m
puts [catch {foreach x $s {}} m]
puts $m
puts [catch {join $s} m]
puts $m
puts [catch {lappend s b} m]
puts $m
puts [catch {llength "\"a"} m]
puts $m
# a closing quote or brace must end its element
puts [catch {llength {"a"b}} m]
puts $m
puts [catch {llength {{a}b}} m]
puts $m
puts [catch {llength {x "abc"defghijklmnopqrstuvwxyz0123 y}} m]
puts $m
puts [llength {"a" b}]
puts [llength {{a} b}]
puts [lindex {"a b" {c d}} 1]
