;; A markdown-subset renderer: escaping and heading styles flow through
;; parameters consulted per character/block; renderers are contracted.

(define html-escape? (make-parameter #t))
(define heading-style (make-parameter 'atx))

(define render-inline
  (contract-wrap (-> string/c string/c)
    (lambda (text)
      (let loop ([i 0] [out '()] [in-em #f])
        (if (= i (string-length text))
            (apply string-append (reverse out))
            (let ([c (string-ref text i)])
              (cond
                [(char=? c #\*)
                 (loop (+ i 1) (cons (if in-em "</em>" "<em>") out)
                       (not in-em))]
                [(and (char=? c #\<) (html-escape?))
                 (loop (+ i 1) (cons "&lt;" out) in-em)]
                [(and (char=? c #\>) (html-escape?))
                 (loop (+ i 1) (cons "&gt;" out) in-em)]
                [else (loop (+ i 1) (cons (string c) out) in-em)])))))
    'markdown))

(define render-block
  (contract-wrap (-> string/c string/c)
    (lambda (line)
      (cond
        [(= 0 (string-length line)) ""]
        [(char=? (string-ref line 0) #\#)
         (let count ([lvl 0])
           (if (and (< lvl (string-length line))
                    (char=? (string-ref line lvl) #\#))
               (count (+ lvl 1))
               (parameterize ([heading-style (if (> lvl 1) 'sub 'top)])
                 (string-append "<h" (number->string lvl) ">"
                                (render-inline (substring line lvl))
                                "</h" (number->string lvl) ">"))))]
        [(char=? (string-ref line 0) #\-)
         (string-append "<li>" (render-inline (substring line 1)) "</li>")]
        [else (string-append "<p>" (render-inline line) "</p>")]))
    'markdown))

(define doc
  (list "# cmarks reference"
        "A *library* for continuation marks."
        "## usage"
        "- set a mark with *with-continuation-mark*"
        "- read marks with <continuation-mark-set->list>"
        "## notes"
        "Marks are *cheap* and *scoped*."))

(define (render-doc)
  (foldl (lambda (line acc)
           (+ acc (string-length (parameterize ([html-escape? #t])
                                   (render-block line)))))
         0 doc))

(define (app-main n)
  (let loop ([i 0] [acc 0])
    (if (= i n) acc (loop (+ i 1) (+ (modulo acc 7) (render-doc))))))
