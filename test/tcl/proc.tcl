# proc: defaults, args, recursion, return, info
proc greet {name {greeting hello}} { return "$greeting, $name" }
puts [greet world]
puts [greet world hi]
proc count {first args} { return "$first + [llength $args]: $args" }
puts [count a]
puts [count a b c]
proc fact {n} { if {$n <= 1} { return 1 }; expr {$n * [fact [expr {$n - 1}]]} }
puts [fact 10]
proc early {x} { if {$x} { return yes }; return no }
puts "[early 1] [early 0]"
proc sum {args} { set s 0; foreach v $args { incr s $v }; set s }
puts [sum 1 2 3 4]
puts [info args greet]
puts [info body early]
proc counter {} { global total; incr total }
set total 0
counter; counter
puts $total
