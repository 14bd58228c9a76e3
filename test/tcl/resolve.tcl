# A command's name is resolved after its words are evaluated, so a word
# that redefines the command it is an argument of calls the new one.
proc f {a} {return old}
foreach i {1 2} { puts [f [if {$i == 2} {proc f {a} {return new}}]] }
proc g {} {return g1}
foreach i {1 2 3} { puts [g]; if {$i == 2} {proc g {} {return g2}} }
proc h {a b} {return "two $a $b"}
foreach i {1 2} { puts [h $i [if {$i == 2} {proc h {a args} {return "rest $a $args"}}]] }
foreach i {1 2} { puts [catch {k [proc k {} {return x}]} m]:$m }
# a proc's call binds its words, whatever the number
proc p2 {a b} {list $a $b}
foreach args {{1} {1 2} {1 2 3}} { puts [catch {eval p2 $args} m]:$m }
foreach i {1 2} { puts [catch {p2 $i} m]:$m }
# if, foreach and set with words the command reads as keywords
set then 1
if {$then} then {puts then-kw} else {puts else-kw}
if 0 then {puts no} elseif 1 then {puts elseif-then} else {puts no}
foreach {a b} {1 2 3} c {x y z w} { puts "$a.$b.$c" }
foreach x {} { puts never }
puts [lmap {a b} {1 2 3 4} {expr {$a * $b}}]
set {x y} braced-name
puts [set {x y}]
