# split: separators, empty fields, the empty string
puts [split "a,b,,c" ,]
puts [llength [split "a,b,,c" ,]]
puts [split "a b  c"]
puts [split "key=value" =]
puts [lindex [split "key=value" =] 1]
puts [split "a:b;c" ":;"]
puts [split ",a," ,]
puts [split "abc" ""]
puts [llength [split "" " "]]
puts "<[split "" ,]>"
puts [llength [split "" ""]]
puts [split "x" ,]
puts [join [split "1:2:3" :] -]
